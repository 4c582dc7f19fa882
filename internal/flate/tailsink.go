package flate

import (
	"fmt"
	"sync"
)

// SlideSink is a Visitor for decodes whose output is measured and
// windowed but never kept: it maintains a running count plus a sliding
// buffer holding at least the trailing WindowSize entries, seeded with
// an initial 32 KiB context so mid-stream back-references resolve
// immediately. With T = byte the context is a known history window
// (skip-mode chunks, see TailSink); with T = uint16 it is the symbolic
// unknown window of internal/tracked. Memory is O(WindowSize) however
// large the output.
//
// The buffer holds the context in its first WindowSize entries and
// appends behind it; once it would outgrow tailSlide entries, the
// trailing WindowSize slide to the front. Back-references reach at
// most WindowSize entries behind the write position, so the retained
// tail always covers them.
type SlideSink[T Elem] struct {
	buf   []T
	total int64 // entries produced (excludes the seeded context)
	spanLog
}

// tailSlide is the buffer length at which a SlideSink compacts.
// Keeping one extra window of slack amortises the copy to ~1 entry per
// output entry while the whole buffer stays cache-resident.
const tailSlide = 2 * WindowSize

// The fixed-size sliding buffers are pooled per element type (Go has
// no generic package variables; tailPool picks T's pool). They stay
// apart from the growing flat buffers: a small tail buffer handed to a
// full decode would pay the whole append-growth chain again.
var (
	tailBytes = sync.Pool{New: func() any { return make([]byte, 0, tailSlide+MaxMatch) }}
	tailSyms  = sync.Pool{New: func() any { return make([]uint16, 0, tailSlide+MaxMatch) }}
)

func tailPool[T Elem]() *sync.Pool {
	var zero T
	if _, ok := any(zero).(byte); ok {
		return &tailBytes
	}
	return &tailSyms
}

func putTailBuf[T Elem](b []T) {
	if cap(b) == 0 {
		return
	}
	tailPool[T]().Put(b[:0]) //nolint:staticcheck
}

// NewSlideSink returns a SlideSink seeded with ctx (len WindowSize, or
// nil for a zeroed window — callers decoding a stream's true start
// combine that with Decoder.SetTrackStart so pre-start references are
// still rejected). The buffer is pooled; hand it back with Release.
func NewSlideSink[T Elem](ctx []T) *SlideSink[T] {
	s := &SlideSink[T]{}
	s.init(ctx)
	return s
}

func (s *SlideSink[T]) init(ctx []T) {
	buf := tailPool[T]().Get().([]T)
	if cap(buf) < tailSlide+MaxMatch {
		buf = make([]T, 0, tailSlide+MaxMatch)
	}
	buf = buf[:WindowSize]
	if ctx != nil {
		copy(buf, ctx)
	} else {
		clear(buf)
	}
	s.buf = buf
}

// Release returns the sliding buffer to the pool. The sink (and any
// Tail slice taken from it) must not be used afterwards; captured
// windows remain valid (they are private allocations).
func (s *SlideSink[T]) Release() {
	putTailBuf(s.buf)
	s.buf = nil
}

// Len returns the number of output entries decoded so far.
func (s *SlideSink[T]) Len() int64 { return s.total }

// Tail returns the trailing min(Len, WindowSize) output entries. The
// slice aliases the sink's pooled buffer.
func (s *SlideSink[T]) Tail() []T {
	if s.total >= WindowSize {
		return s.buf[len(s.buf)-WindowSize:]
	}
	return s.buf[int64(len(s.buf))-s.total:]
}

// WindowInto fills dst (len WindowSize) with the current history
// window: the trailing WindowSize entries of context ++ output.
func (s *SlideSink[T]) WindowInto(dst []T) {
	copy(dst, s.buf[len(s.buf)-WindowSize:])
}

// slide compacts the buffer so the next append of up to n entries fits
// without growing past the slide threshold.
func (s *SlideSink[T]) slide(n int) {
	if len(s.buf)+n <= tailSlide {
		return
	}
	copy(s.buf, s.buf[len(s.buf)-WindowSize:])
	s.buf = s.buf[:WindowSize]
}

func (s *SlideSink[T]) BlockStart(ev BlockEvent) error { return s.blockStart(ev, s.total) }

func (s *SlideSink[T]) Literal(b byte) error {
	s.slide(1)
	s.buf = append(s.buf, T(b))
	s.total++
	return s.full(s.total)
}

func (s *SlideSink[T]) Match(length, dist int) error {
	s.slide(length)
	n := len(s.buf)
	src := n - dist // >= 0: at least WindowSize entries are always retained
	if dist >= length {
		s.buf = append(s.buf, s.buf[src:src+length]...)
	} else {
		for i := 0; i < length; i++ {
			s.buf = append(s.buf, s.buf[src+i])
		}
	}
	s.total += int64(length)
	return s.full(s.total)
}

func (s *SlideSink[T]) BlockEnd(nextBit int64) error {
	s.blockEnd(nextBit, s.total)
	return nil
}

// TailSink is the exact SlideSink plus the checkpoint-harvest hooks:
// skip-mode chunks whose initial context is already resolved decode
// through it, and the harvest passes use CaptureAt/CaptureEvery to
// snapshot the history window at chosen output offsets (block
// boundaries).
type TailSink struct {
	SlideSink[byte]

	// captureAt are produced-output offsets, strictly ascending, at
	// which the current history window is snapshotted when a block
	// boundary lands exactly there (set via CaptureAt). Captured
	// windows are freshly allocated WindowSize slices.
	captureAt []int64
	captured  [][]byte
	ci        int

	// Online capture walk (CaptureEvery): snapshot at the first block
	// boundary at or past walkNext, then advance by walkSpacing — the
	// same spacing rule the checkpoint emitters replay, so a chunk
	// whose targets are known up front (the first chunk of a segment)
	// can harvest its windows in the decoding pass itself.
	walk        bool
	walkNext    int64
	walkSpacing int64
	walkOuts    []int64
	walkBits    []int64
}

// NewTailSink returns a TailSink seeded with ctx, as NewSlideSink.
// The buffer is pooled; hand it back with Release.
func NewTailSink(ctx []byte) *TailSink {
	s := &TailSink{}
	s.init(ctx)
	return s
}

// CaptureAt arms window snapshots: when a block boundary (or the final
// FlushCaptures call) lands exactly at one of these produced-output
// offsets, the trailing WindowSize bytes at that point are copied out.
// Offsets must be strictly ascending.
func (s *TailSink) CaptureAt(offsets []int64) { s.captureAt = offsets }

// CaptureEvery arms the online spacing walk: a snapshot at the first
// block boundary at or past from, then at the first boundary at least
// spacing output bytes past each previous snapshot. Mutually exclusive
// with CaptureAt.
func (s *TailSink) CaptureEvery(from, spacing int64) {
	s.walk, s.walkNext, s.walkSpacing = true, from, spacing
}

// Captured returns the snapshots taken so far, in offset order.
func (s *TailSink) Captured() [][]byte { return s.captured }

// WalkMarks returns the output offsets and block start bits of the
// snapshots an online walk took, parallel to Captured().
func (s *TailSink) WalkMarks() (outs, bits []int64) { return s.walkOuts, s.walkBits }

// FlushCaptures takes any snapshot whose offset equals the current
// output length — the end-of-decode case where the boundary belongs to
// a block the decode stopped before (e.g. an empty final block).
func (s *TailSink) FlushCaptures() { s.capture() }

func (s *TailSink) capture() {
	for s.ci < len(s.captureAt) && s.captureAt[s.ci] == s.total {
		w := make([]byte, WindowSize)
		s.WindowInto(w)
		s.captured = append(s.captured, w)
		s.ci++
	}
}

// CapturesMissed reports how many armed offsets were never reached —
// non-zero means the decode stopped short of a requested snapshot.
func (s *TailSink) CapturesMissed() int { return len(s.captureAt) - s.ci }

// MissedCapture describes the first unreached offset for error
// reporting.
func (s *TailSink) MissedCapture() string {
	if s.ci >= len(s.captureAt) {
		return ""
	}
	return fmt.Sprintf("offset %d (decoded %d)", s.captureAt[s.ci], s.total)
}

// BlockStart applies the shared stop and span bookkeeping, then takes
// any snapshot armed for this boundary. A StopBit halt takes none: the
// refused block belongs to the successor chunk.
func (s *TailSink) BlockStart(ev BlockEvent) error {
	if err := s.SlideSink.BlockStart(ev); err != nil {
		return err
	}
	if len(s.captureAt) > 0 {
		s.capture()
	}
	if s.walk && s.total >= s.walkNext {
		w := make([]byte, WindowSize)
		s.WindowInto(w)
		s.captured = append(s.captured, w)
		s.walkOuts = append(s.walkOuts, s.total)
		s.walkBits = append(s.walkBits, ev.StartBit)
		s.walkNext = s.total + s.walkSpacing
	}
	return nil
}
