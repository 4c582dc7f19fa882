package flate

import (
	"errors"

	"repro/internal/bitio"
)

// FlatSink is a Visitor that materialises the decoded stream into one
// flat buffer of T: bytes for the "plain gunzip" consumer (ByteSink),
// uint16 symbols for a decode against an undetermined context
// (tracked.Sink). Back-references must land inside the entries already
// produced — or inside a seeded context prefix (see Prefix), which is
// how a mid-stream chunk whose 32 KiB window is already known decodes
// exactly without the symbolic detour, and how a symbolic decode sees
// its unknown window.
type FlatSink[T Elem] struct {
	Out []T
	// Prefix marks the first Prefix entries of Out as seeded context (a
	// history window, not produced output). Back-references may reach
	// into it; Output() excludes it. Callers seed it by filling Out
	// with the window before decoding.
	Prefix int
	spanLog
}

// ByteSink is the exact flat sink.
type ByteSink = FlatSink[byte]

// Output returns the decoded entries, excluding any seeded context
// prefix. The slice aliases the sink's buffer.
func (s *FlatSink[T]) Output() []T { return s.Out[s.Prefix:] }

// Len returns the number of output entries decoded so far.
func (s *FlatSink[T]) Len() int64 { return int64(len(s.Out) - s.Prefix) }

// BlockSpan describes one decoded block: its bit extent in the
// compressed stream and entry extent in the output.
type BlockSpan struct {
	Event    BlockEvent
	EndBit   int64
	OutStart int64
	OutEnd   int64
}

// spanLog is the block bookkeeping both window sinks share: per-block
// spans, the Limit output budget and the StopBit halt.
type spanLog struct {
	// Blocks accumulates one span per decoded block once RecordBlocks
	// was called. Offsets exclude any seeded context.
	Blocks []BlockSpan
	// Limit, when > 0, stops decoding (with Stop) once the output
	// reaches this many entries.
	Limit int64
	// StopBit, when > 0, stops decoding (with Stop) before a block
	// whose start bit is >= StopBit: how a parallel chunk decode ends
	// exactly where its successor's begins.
	StopBit int64
	// StoppedAt is the start bit of the block a StopBit halt refused
	// (0 when no halt occurred).
	StoppedAt int64
	record    bool
}

// RecordBlocks enables per-block span recording.
func (l *spanLog) RecordBlocks() { l.record = true }

// EndBit returns where a decode through r ended: the start of the
// block a StopBit halt refused (the decoder has already consumed part
// of that block's header by the time the halt fires), else r's
// position.
func (l *spanLog) EndBit(r *bitio.Reader) int64 {
	if l.StoppedAt > 0 {
		return l.StoppedAt
	}
	return r.BitPos()
}

func (l *spanLog) blockStart(ev BlockEvent, out int64) error {
	if l.StopBit > 0 && ev.StartBit >= l.StopBit {
		l.StoppedAt = ev.StartBit
		return Stop
	}
	if l.record {
		l.Blocks = append(l.Blocks, BlockSpan{Event: ev, OutStart: out})
	}
	return nil
}

// blockEnd closes the open span. A BlockEnd with no recorded span (a
// visitor driven without a prior BlockStart) is a no-op rather than a
// panic: span recording only ever annotates blocks it saw open.
func (l *spanLog) blockEnd(nextBit, out int64) {
	if l.record && len(l.Blocks) > 0 {
		last := &l.Blocks[len(l.Blocks)-1]
		last.EndBit = nextBit
		last.OutEnd = out
	}
}

// full returns Stop once out has reached the Limit budget.
func (l *spanLog) full(out int64) error {
	if l.Limit > 0 && out >= l.Limit {
		return Stop
	}
	return nil
}

// ErrDanglingRef is returned when a match reaches before the first
// output byte — decoding a stream from its true start never does this.
var ErrDanglingRef = errors.New("flate: back-reference before output start")

func (s *FlatSink[T]) BlockStart(ev BlockEvent) error { return s.blockStart(ev, s.Len()) }

func (s *FlatSink[T]) Literal(b byte) error {
	s.Out = append(s.Out, T(b))
	return s.full(s.Len())
}

func (s *FlatSink[T]) Match(length, dist int) error {
	n := len(s.Out)
	if dist > n {
		return ErrDanglingRef
	}
	// Overlapping copies (dist < length) must proceed entry-by-entry in
	// stream order; this is the RLE-style idiom DEFLATE relies on.
	src := n - dist
	if dist >= length {
		s.Out = append(s.Out, s.Out[src:src+length]...)
	} else {
		for i := 0; i < length; i++ {
			s.Out = append(s.Out, s.Out[src+i])
		}
	}
	return s.full(s.Len())
}

func (s *FlatSink[T]) BlockEnd(nextBit int64) error {
	s.blockEnd(nextBit, s.Len())
	return nil
}

// DecompressAll decodes a whole DEFLATE stream (starting at bit offset
// startBit of data) into a byte slice. It applies normal gunzip rules:
// no validation-mode restrictions, back-references must stay within
// produced output.
func DecompressAll(data []byte, startBit int64) ([]byte, error) {
	out, _, err := DecompressRecorded(data, startBit, false)
	return out, err
}

// DecompressRecorded is DecompressAll with optional per-block span
// recording (used by tests and the chunk planner).
func DecompressRecorded(data []byte, startBit int64, record bool) ([]byte, []BlockSpan, error) {
	r, err := bitio.NewReaderAt(data, startBit)
	if err != nil {
		return nil, nil, err
	}
	sink := &ByteSink{}
	if record {
		sink.RecordBlocks()
	}
	dec := NewDecoder(Options{})
	dec.SetTrackStart(true)
	if err := dec.DecodeStream(r, sink); err != nil {
		return nil, nil, err
	}
	return sink.Out, sink.Blocks, nil
}

// CountingSink discards output but tallies tokens; used by validation
// probes and statistics collection.
type CountingSink struct {
	Literals int64
	Matches  int64
	Bytes    int64
	// MatchLenSum and MatchDistSum allow computing the average match
	// length/offset (the paper's l_a and o_a).
	MatchLenSum  int64
	MatchDistSum int64
	BlocksSeen   int
}

func (c *CountingSink) BlockStart(BlockEvent) error { c.BlocksSeen++; return nil }
func (c *CountingSink) Literal(byte) error          { c.Literals++; c.Bytes++; return nil }
func (c *CountingSink) Match(length, dist int) error {
	c.Matches++
	c.Bytes += int64(length)
	c.MatchLenSum += int64(length)
	c.MatchDistSum += int64(dist)
	return nil
}
func (c *CountingSink) BlockEnd(int64) error { return nil }

// AvgMatchLen returns l_a, the mean match length (0 when no matches).
func (c *CountingSink) AvgMatchLen() float64 {
	if c.Matches == 0 {
		return 0
	}
	return float64(c.MatchLenSum) / float64(c.Matches)
}

// AvgMatchDist returns o_a, the mean match offset (0 when no matches).
func (c *CountingSink) AvgMatchDist() float64 {
	if c.Matches == 0 {
		return 0
	}
	return float64(c.MatchDistSum) / float64(c.Matches)
}
