// Package tracked implements decompression with an undetermined
// context (Sections IV-B and VI-C of the paper).
//
// When decoding starts mid-stream, the 32 KiB history window that
// back-references reach into is unknown. Instead of a plain '?'
// character, the window is seeded with 32768 *unique* symbols
// U_0..U_32767 (the paper's ŵ). Decoding then proceeds normally:
// literals append resolved bytes, matches copy whatever the window
// holds — possibly symbols. The output is a sequence over the alphabet
// bytes ∪ {U_j}; every occurrence of U_j records precisely that "this
// output byte equals byte j of the unknown initial context", which is
// what makes the exact two-pass parallel algorithm possible.
package tracked

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/flate"
)

const (
	// WindowSize is the DEFLATE context size being tracked.
	WindowSize = flate.WindowSize

	// SymBase is the first symbolic value: cell value SymBase+j means
	// U_j. Values below SymBase are resolved bytes.
	SymBase = 256

	// UndeterminedByte is the narrow rendering of any unresolved
	// symbol, used for display and by the FASTQ heuristics ('?' in the
	// paper's figures).
	UndeterminedByte = '?'
)

// Sink is the symbolic flat sink: a flate.FlatSink over uint16 cells
// whose Prefix is the WindowSize-symbol initial context, so
// back-references into the unknown window resolve with plain slice
// indexing and copy symbols.
type Sink = flate.FlatSink[uint16]

// TailSink is the skip-mode counterpart of Sink: a flate.SlideSink
// that decodes with a fully undetermined context but materialises only
// a running output count plus the trailing WindowSize symbols — the
// one part of a skipped chunk's output that pass 2 ever touches (the
// window propagated to the successor, w_{i+1} = resolve(tail(D_i),
// w_i)). Memory per chunk is O(WindowSize) instead of O(chunk output),
// which is what makes deep seeks, Size() passes, and streaming index
// builds cheap on the memory side.
type TailSink = flate.SlideSink[uint16]

// symbolicContext is the paper's ŵ: cell j holds U_j = SymBase+j.
var symbolicContext = func() (w [WindowSize]uint16) {
	for j := range w {
		w[j] = uint16(SymBase + j)
	}
	return w
}()

// NewSink returns a Sink with a fully undetermined initial context and
// capacity for sizeHint output entries.
func NewSink(sizeHint int) *Sink {
	buf := getSymBuf(WindowSize + sizeHint)
	return &Sink{Out: append(buf, symbolicContext[:]...), Prefix: WindowSize}
}

// NewTailSink returns a TailSink with a fully undetermined initial
// context. Its buffer is pooled; hand it back via Release (or the
// owning Result's Release).
func NewTailSink() *TailSink { return flate.NewSlideSink(symbolicContext[:]) }

// --- Buffer pools -----------------------------------------------------
//
// The parallel engine decodes one symbolic buffer per chunk per batch
// and one resolved 32 KiB window per chunk; at streaming rates that is
// thousands of multi-megabyte allocations per file. The pools below let
// the hot path recycle both: symbolic buffers return via
// Result.Release once pass-2 translation has consumed them, windows via
// PutWindow once the propagation chain moves past them.

var symBufPool = sync.Pool{
	New: func() any { return make([]uint16, 0, WindowSize+64<<10) },
}

// getSymBuf returns a pooled buffer with room for capHint entries. A
// pooled buffer too small for the request is dropped, not put back: the
// pool hands a P its own last Put first, so a returned undersized
// buffer would be offered — and refused — again by the very next
// request, and every request of a sized segment would allocate.
func getSymBuf(capHint int) []uint16 {
	b := symBufPool.Get().([]uint16)
	if cap(b) < capHint {
		b = make([]uint16, 0, capHint)
	}
	return b[:0]
}

func putSymBuf(b []uint16) {
	if cap(b) == 0 {
		return
	}
	symBufPool.Put(b[:0]) //nolint:staticcheck
}

var windowPool = sync.Pool{
	New: func() any { return make([]byte, WindowSize) },
}

// GetWindow returns a zeroed WindowSize context buffer from the pool.
func GetWindow() []byte {
	w := windowPool.Get().([]byte)
	clear(w)
	return w
}

// PutWindow returns a window obtained from GetWindow (or ResolveWindow)
// to the pool. Putting nil is a no-op.
func PutWindow(w []byte) {
	if cap(w) < WindowSize {
		return
	}
	windowPool.Put(w[:WindowSize]) //nolint:staticcheck
}

// Result bundles a tracked decode.
type Result struct {
	// Out is the decoded symbolic stream. After DecodeFrom it is the
	// full output; after DecodeTailFrom only the trailing
	// min(OutLen, WindowSize) entries survive.
	Out []uint16
	// OutLen is the total number of output entries decoded — equal to
	// len(Out) for a full decode, and the true (possibly much larger)
	// output length for a tail-only decode.
	OutLen int64
	Spans  []flate.BlockSpan
	EndBit int64 // bit offset after the last fully decoded block
	Final  bool  // whether the stream's final block was reached

	buf  []uint16  // pooled backing of Out (context prefix included)
	tail *TailSink // owner of Out after DecodeTailFrom
}

// Release returns the decode buffer backing Out to its package pool.
// Out (and any slice aliasing it) must not be used afterwards; Spans
// remain valid. Calling Release twice, or on a Result that owns no
// pooled buffer, is a no-op.
func (r *Result) Release() {
	if r.tail != nil {
		r.tail.Release()
	} else {
		putSymBuf(r.buf)
	}
	r.buf, r.Out, r.tail = nil, nil, nil
}

// DecodeOptions tunes DecodeFrom.
type DecodeOptions struct {
	// MaxOutput stops decoding after this many output bytes (0 = no
	// limit).
	MaxOutput int
	// StopBit stops before any block starting at or beyond this bit.
	StopBit int64
	// RecordSpans toggles per-block span collection.
	RecordSpans bool
	// SizeHint pre-sizes the output buffer.
	SizeHint int
}

// DecodeFrom decompresses a DEFLATE stream starting at startBit of
// data with a fully undetermined context. The start must be a true
// block boundary (use internal/blockfind to locate one). Decoding ends
// at the stream's final block, at opts.StopBit, or after
// opts.MaxOutput bytes, whichever comes first.
func DecodeFrom(data []byte, startBit int64, opts DecodeOptions) (*Result, error) {
	r, err := bitio.NewReaderAt(data, startBit)
	if err != nil {
		return nil, err
	}
	sink := NewSink(opts.SizeHint)
	sink.Limit, sink.StopBit = int64(opts.MaxOutput), opts.StopBit
	if opts.RecordSpans {
		sink.RecordBlocks()
	}
	final, err := decodeBlocks(r, sink)
	if err != nil {
		putSymBuf(sink.Out)
		return nil, fmt.Errorf("tracked: decode at bit %d: %w", startBit, err)
	}
	return &Result{Out: sink.Output(), OutLen: sink.Len(), Spans: sink.Blocks, EndBit: sink.EndBit(r), Final: final, buf: sink.Out}, nil
}

// DecodeTailFrom is DecodeFrom in tail-only mode: same decode, same
// spans and stop conditions, but the Result carries only the output
// length and the trailing window (Result.Out holds the trailing
// min(OutLen, WindowSize) symbols; Result.OutLen the true length).
// Memory stays O(WindowSize) regardless of the chunk's output size.
func DecodeTailFrom(data []byte, startBit int64, opts DecodeOptions) (*Result, error) {
	r, err := bitio.NewReaderAt(data, startBit)
	if err != nil {
		return nil, err
	}
	sink := NewTailSink()
	sink.Limit, sink.StopBit = int64(opts.MaxOutput), opts.StopBit
	if opts.RecordSpans {
		sink.RecordBlocks()
	}
	final, err := decodeBlocks(r, sink)
	if err != nil {
		sink.Release()
		return nil, fmt.Errorf("tracked: tail decode at bit %d: %w", startBit, err)
	}
	return &Result{Out: sink.Tail(), OutLen: sink.Len(), Spans: sink.Blocks, EndBit: sink.EndBit(r), Final: final, tail: sink}, nil
}

// decodeBlocks runs a pooled decoder over r into sink until the final
// block completes or the sink halts it.
func decodeBlocks(r *bitio.Reader, sink flate.Visitor) (bool, error) {
	dec := flate.GetDecoder(flate.Options{})
	defer flate.PutDecoder(dec)
	return dec.DecodeBlocks(r, sink)
}

// ErrSymbolRange reports a symbolic entry >= SymBase+WindowSize: no
// decode ever produces one, so the buffer is corrupt or was paired
// with the wrong alphabet. The translation loops below surface it as
// an error instead of indexing out of the context.
var ErrSymbolRange = errors.New("tracked: symbolic value out of context range")

// Resolve replaces every symbolic entry of out with the corresponding
// byte of ctx (the true initial context, len == WindowSize), writing
// bytes into dst (allocated when nil). It is the pass-2 translation of
// Figure 3: out[i] == SymBase+j  =>  dst[i] = ctx[j]. It is
// ResolveCounted with the count discarded.
func Resolve(out []uint16, ctx []byte, dst []byte) ([]byte, error) {
	if cap(dst) < len(out) {
		dst = make([]byte, len(out))
	}
	dst = dst[:len(out)]
	if _, err := ResolveCounted(dst, out, ctx); err != nil {
		return nil, err
	}
	return dst, nil
}

// ResolveCounted is the translation entry point: Resolve into dst
// (len(dst) == len(out)), also returning how many entries of out were
// symbolic. The count rides on the translation: all-literal runs are
// known symbol-free from the packed check, and only symbolic regions
// are counted, while still hot in cache, so the parallel engine learns
// a chunk's unresolved-symbol total without a separate scan of the
// whole buffer.
func ResolveCounted(dst []byte, out []uint16, ctx []byte) (int, error) {
	if len(ctx) != WindowSize {
		return 0, fmt.Errorf("tracked: context must be %d bytes, got %d", WindowSize, len(ctx))
	}
	if len(dst) != len(out) {
		return 0, fmt.Errorf("tracked: destination holds %d bytes, want %d", len(dst), len(out))
	}
	return resolveInto(dst, out, ctx)
}

// ResolveWindow computes the resolved last-32-KiB window of a chunk's
// output given that chunk's (resolved) initial context. This is the
// cheap sequential step of pass 2: w_{i+1} = resolve(tail(D_i), w_i).
// When the output is shorter than a window, the leading part of the
// result comes from the tail of the context itself. The returned
// window comes from the package pool; hand it back with PutWindow when
// the propagation chain moves past it.
func ResolveWindow(out []uint16, ctx []byte) ([]byte, error) {
	w := windowPool.Get().([]byte)
	if err := ResolveWindowInto(w, out, ctx); err != nil {
		PutWindow(w)
		return nil, err
	}
	return w, nil
}

// ResolveWindowInto is ResolveWindow writing into a caller-provided
// WindowSize buffer (every byte is overwritten).
func ResolveWindowInto(w []byte, out []uint16, ctx []byte) error {
	if len(ctx) != WindowSize {
		return fmt.Errorf("tracked: context must be %d bytes, got %d", WindowSize, len(ctx))
	}
	if len(w) != WindowSize {
		return fmt.Errorf("tracked: window buffer must be %d bytes, got %d", WindowSize, len(w))
	}
	n := len(out)
	if n >= WindowSize {
		_, err := resolveInto(w, out[n-WindowSize:], ctx)
		return err
	}
	// Short chunk: window = last (WindowSize-n) bytes of ctx ++ resolved out.
	copy(w, ctx[n:])
	_, err := resolveInto(w[WindowSize-n:], out, ctx)
	return err
}

// resolveInto is the translation hot loop. Symbolic entries cluster
// near the start of a chunk (the reach of its unknown context), so for
// realistic streams the bulk of the buffer is all-literal runs. Both
// kernels alternate between a packed mode — eight entries checked with
// one OR, clean groups narrowed with a single 64-bit store — and a
// symbolic-region mode: large buffers take one branch-free table load
// per entry in 4096-entry blocks (resolveSpanTab), window-sized ones a
// scalar per-entry loop in 256-entry blocks (resolveSpanScalar). In
// both, symbols are bounds-checked so a value >= SymBase+WindowSize
// (corrupt or mis-paired buffer) surfaces as ErrSymbolRange rather
// than a panic. It returns the number of symbolic entries (the scalar
// kernel counts them for free, the table kernel per symbolic block).
func resolveInto(dst []byte, out []uint16, ctx []byte) (int, error) {
	var bad, syms int
	if len(out) >= resolveTabMin {
		// Large buffers translate symbolic regions branchlessly through
		// a prepended-literal lookup table (33 KiB build, amortised).
		t := getResolveTab(ctx)
		bad, syms = resolveSpanTab(dst, out, t[:])
		putResolveTab(t)
	} else {
		bad, syms = resolveSpanScalar(dst, out, ctx)
	}
	if bad >= 0 {
		return 0, fmt.Errorf("%w: entry %d = %d", ErrSymbolRange, bad, out[bad])
	}
	return syms, nil
}

// resolveTabMin is the output size from which building a lookup table
// pays for itself. Window-sized resolves (<= WindowSize entries) stay
// on the scalar path.
const resolveTabMin = 64 << 10

// resolveTab is a translation table: 256 identity bytes (the literals)
// followed by the 32 KiB context, so tab[v] resolves every valid entry
// with a single load — no data-dependent branch. Recycled through a
// small mutex-guarded freelist rather than a sync.Pool: pools are
// emptied at every GC cycle, and the translation runs right where the
// engine churns multi-megabyte buffers, so a pool would re-allocate
// the table on exactly the hot path it serves.
type resolveTab [256 + WindowSize]byte

var resolveTabs struct {
	sync.Mutex
	free []*resolveTab // guarded by Mutex
}

const resolveTabKeep = 16 // bounded retention: at most ~528 KiB parked

func getResolveTab(ctx []byte) *resolveTab {
	resolveTabs.Lock()
	var t *resolveTab
	if n := len(resolveTabs.free); n > 0 {
		t = resolveTabs.free[n-1]
		resolveTabs.free = resolveTabs.free[:n-1]
	}
	resolveTabs.Unlock()
	if t == nil {
		t = new(resolveTab)
	}
	for i := 0; i < 256; i++ {
		t[i] = byte(i)
	}
	copy(t[256:], ctx)
	return t
}

func putResolveTab(t *resolveTab) {
	resolveTabs.Lock()
	if len(resolveTabs.free) < resolveTabKeep {
		resolveTabs.free = append(resolveTabs.free, t)
	}
	resolveTabs.Unlock()
}

// The two translation kernels below keep their per-entry loops call-free
// (errors are reported as an index so they stay leaf code): they return
// the index of the first out-of-range symbol (-1 on success) and the
// number of symbolic entries translated. All-literal groups hold no
// symbols, so only symbolic regions are counted.

// resolveSpanTab translates with the prepended-literal lookup table:
// packed 8-wide stores through all-literal runs, and one branch-free
// table load per entry inside symbolic regions (a large block each,
// with packed mode re-probing between blocks — a failed probe costs a
// single group check, so no exit bookkeeping is needed).
// A per-entry count would slow the table loop by about as much as the
// translation itself costs, so each symbolic block is counted after
// translating it, four entries per word (countSyms), while it is still
// in L1.
func resolveSpanTab(dst []byte, out []uint16, tab []byte) (int, int) {
	n := len(out)
	i, syms := 0, 0
	for i < n {
		for i+8 <= n {
			v0, v1, v2, v3 := out[i], out[i+1], out[i+2], out[i+3]
			v4, v5, v6, v7 := out[i+4], out[i+5], out[i+6], out[i+7]
			if v0|v1|v2|v3|v4|v5|v6|v7 >= SymBase {
				break
			}
			// All-literal group: one packed store (values are < 256, so
			// each entry's low byte is the byte).
			u := uint64(v0) | uint64(v1)<<8 | uint64(v2)<<16 | uint64(v3)<<24 |
				uint64(v4)<<32 | uint64(v5)<<40 | uint64(v6)<<48 | uint64(v7)<<56
			binary.LittleEndian.PutUint64(dst[i:i+8], u)
			i += 8
		}
		if i >= n {
			break
		}
		end := i + 4096
		if end > n {
			end = n
		}
		o := out[i:end]
		if j := translateTab(dst[i:end], o, tab); j >= 0 {
			return i + j, syms
		}
		syms += countSyms(o)
		i = end
	}
	return -1, syms
}

// translateTab is the table loop over one symbolic block: one
// branch-free load per entry, returning the index of the first
// out-of-range entry or -1. It stays out of line so the loop gets the
// registers to itself (inlined into resolveSpanTab, it reloads a
// spilled slice pointer on every entry).
//
//go:noinline
func translateTab(d []byte, o []uint16, tab []byte) int {
	d = d[:len(o)] // one explicit bound so the loop stays check-free
	for j, v := range o {
		if int(v) >= len(tab) {
			return j
		}
		d[j] = tab[v]
	}
	return -1
}

// countSyms counts the entries of o that are >= SymBase, four per
// 64-bit word. Every entry must be < SymBase+WindowSize (0x8100), as
// the table loop has checked: then adding 0x7F00 to a 16-bit lane sets
// its top bit exactly when the entry is >= SymBase, without carrying
// into the next lane. The final multiply sums the four lane tallies in
// 16 bits, so o must hold fewer than 65536 entries (blocks are 4096).
func countSyms(o []uint16) int {
	var acc uint64
	for len(o) >= 4 {
		w := o[:4:4]
		x := uint64(w[0]) | uint64(w[1])<<16 | uint64(w[2])<<32 | uint64(w[3])<<48
		acc += (x + 0x7F007F007F007F00) >> 15 & 0x0001000100010001
		o = o[4:]
	}
	n := int(acc * 0x0001000100010001 >> 48)
	for _, v := range o {
		if v >= SymBase {
			n++
		}
	}
	return n
}

// resolveSpanScalar is the table-free kernel for small inputs (window
// resolves): packed mode through literal runs, scalar 256-entry blocks
// inside symbolic regions, returning to packed mode after a
// symbol-free block.
func resolveSpanScalar(dst []byte, out []uint16, ctx []byte) (int, int) {
	n := len(out)
	i, total := 0, 0
	for i < n {
		for i+8 <= n {
			v0, v1, v2, v3 := out[i], out[i+1], out[i+2], out[i+3]
			v4, v5, v6, v7 := out[i+4], out[i+5], out[i+6], out[i+7]
			if v0|v1|v2|v3|v4|v5|v6|v7 >= SymBase {
				break
			}
			u := uint64(v0) | uint64(v1)<<8 | uint64(v2)<<16 | uint64(v3)<<24 |
				uint64(v4)<<32 | uint64(v5)<<40 | uint64(v6)<<48 | uint64(v7)<<56
			binary.LittleEndian.PutUint64(dst[i:i+8], u)
			i += 8
		}
		if i >= n {
			break
		}
		for i < n {
			end := i + 256
			if end > n {
				end = n
			}
			o := out[i:end]
			d := dst[i:end]
			d = d[:len(o)]
			syms := 0
			for j, v := range o {
				if v < SymBase {
					d[j] = byte(v)
					continue
				}
				k := int(v) - SymBase
				if k >= len(ctx) {
					return i + j, total
				}
				d[j] = ctx[k]
				syms++
			}
			i = end
			total += syms
			if syms == 0 {
				break // clean block: the symbolic run has ended
			}
		}
	}
	return -1, total
}

// Narrow renders a symbolic stream as bytes with every unresolved
// symbol shown as UndeterminedByte ('?'): the representation used by
// the paper's figures and the FASTQ heuristic parser.
func Narrow(out []uint16) []byte {
	dst := make([]byte, len(out))
	for i, v := range out {
		if v < SymBase {
			dst[i] = byte(v)
		} else {
			dst[i] = UndeterminedByte
		}
	}
	return dst
}

// CountUndetermined returns the number of symbolic entries in out.
func CountUndetermined(out []uint16) int {
	n := 0
	for _, v := range out {
		if v >= SymBase {
			n++
		}
	}
	return n
}

// UndeterminedPerWindow partitions out into consecutive non-overlapping
// windows of size w and returns the fraction of undetermined entries
// in each (the y-axis of Figure 2). A trailing partial window is
// included when at least half full.
func UndeterminedPerWindow(out []uint16, w int) []float64 {
	if w <= 0 {
		return nil
	}
	var fracs []float64
	for start := 0; start < len(out); start += w {
		end := start + w
		if end > len(out) {
			if len(out)-start < w/2 {
				break
			}
			end = len(out)
		}
		u := CountUndetermined(out[start:end])
		fracs = append(fracs, float64(u)/float64(end-start))
	}
	return fracs
}
