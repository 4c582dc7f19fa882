package tracked

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/deflate"
	"repro/internal/dna"
	"repro/internal/flate"
)

// fixture compresses data and returns payload plus true block spans
// and the reference decode.
func fixture(t *testing.T, data []byte, level int) ([]byte, []flate.BlockSpan) {
	t.Helper()
	payload, err := deflate.Compress(data, level)
	if err != nil {
		t.Fatal(err)
	}
	ref, spans, err := flate.DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, data) {
		t.Fatal("reference decode mismatch")
	}
	return payload, spans
}

// TestResolveAgainstTruth is the central exactness property of the
// symbolic context: decoding from block k with unique symbols and then
// resolving with the *true* preceding window must reproduce the true
// suffix byte-for-byte.
func TestResolveAgainstTruth(t *testing.T) {
	data := dna.Random(600_000, 21)
	for _, level := range []int{1, 6, 9} {
		payload, spans := fixture(t, data, level)
		if len(spans) < 4 {
			t.Fatalf("level %d: want >=4 blocks", level)
		}
		for _, k := range []int{1, 2, len(spans) / 2} {
			start := spans[k]
			res, err := DecodeFrom(payload, start.Event.StartBit, DecodeOptions{})
			if err != nil {
				t.Fatalf("level %d block %d: %v", level, k, err)
			}
			suffix := data[start.OutStart:]
			if len(res.Out) != len(suffix) {
				t.Fatalf("level %d block %d: length %d vs %d", level, k, len(res.Out), len(suffix))
			}
			// True context: the WindowSize bytes before the block.
			ctx := make([]byte, WindowSize)
			if start.OutStart >= WindowSize {
				copy(ctx, data[start.OutStart-WindowSize:start.OutStart])
			} else {
				copy(ctx[WindowSize-start.OutStart:], data[:start.OutStart])
			}
			got, err := Resolve(res.Out, ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, suffix) {
				t.Fatalf("level %d block %d: resolved suffix mismatch", level, k)
			}
			if !res.Final {
				t.Fatalf("level %d block %d: expected decode to reach final block", level, k)
			}
		}
	}
}

// TestNarrowMatchesResolvedPositions: every non-'?' in the narrow view
// must equal the true byte.
func TestNarrowMatchesResolvedPositions(t *testing.T) {
	data := dna.Random(400_000, 22)
	payload, spans := fixture(t, data, 6)
	start := spans[1]
	res, err := DecodeFrom(payload, start.Event.StartBit, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	narrow := Narrow(res.Out)
	truth := data[start.OutStart:]
	for i, b := range narrow {
		if b != UndeterminedByte && b != truth[i] {
			t.Fatalf("position %d: resolved %q but truth %q", i, b, truth[i])
		}
	}
}

// TestSymbolsReferenceContextFaithfully: symbol SymBase+j in the
// output must equal context byte j under any context (not just the
// true one) — the substitution property pass 2 relies on.
func TestSymbolsReferenceContextFaithfully(t *testing.T) {
	data := dna.Random(300_000, 23)
	payload, spans := fixture(t, data, 6)
	start := spans[1]
	res, err := DecodeFrom(payload, start.Event.StartBit, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Resolve with an arbitrary synthetic context; then decoding
	// plainly with that context prepended must agree wherever the
	// narrow view was undetermined.
	fake := make([]byte, WindowSize)
	for j := range fake {
		fake[j] = byte('a' + j%26)
	}
	resolved, err := Resolve(res.Out, fake, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Out {
		if v >= SymBase {
			if resolved[i] != fake[v-SymBase] {
				t.Fatalf("position %d: symbol %d resolved to %q, want %q",
					i, v-SymBase, resolved[i], fake[v-SymBase])
			}
		}
	}
}

func TestResolveWindowLongChunk(t *testing.T) {
	data := dna.Random(200_000, 24)
	payload, spans := fixture(t, data, 6)
	start := spans[1]
	res, err := DecodeFrom(payload, start.Event.StartBit, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, WindowSize)
	copy(ctx, data[start.OutStart-WindowSize:start.OutStart])
	w, err := ResolveWindow(res.Out, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, data[len(data)-WindowSize:]) {
		t.Fatal("final window mismatch")
	}
}

func TestResolveWindowShortChunk(t *testing.T) {
	// Output shorter than a window: the window must borrow the tail of
	// the context.
	out := []uint16{'A', 'B', uint16(SymBase + 5)}
	ctx := make([]byte, WindowSize)
	for j := range ctx {
		ctx[j] = byte(j % 251)
	}
	w, err := ResolveWindow(out, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer PutWindow(w)
	if len(w) != WindowSize {
		t.Fatalf("window size %d", len(w))
	}
	// Last 3 entries: A, B, ctx[5].
	if w[WindowSize-3] != 'A' || w[WindowSize-2] != 'B' || w[WindowSize-1] != ctx[5] {
		t.Fatal("tail of short-chunk window wrong")
	}
	// Front: ctx shifted by 3.
	if w[0] != ctx[3] || w[WindowSize-4] != ctx[WindowSize-1] {
		t.Fatal("front of short-chunk window wrong")
	}
}

func TestResolveBadContext(t *testing.T) {
	if _, err := Resolve([]uint16{1}, make([]byte, 100), nil); err == nil {
		t.Fatal("short context accepted")
	}
	if w, err := ResolveWindow([]uint16{1}, make([]byte, 100)); err == nil {
		PutWindow(w)
		t.Fatal("short context accepted")
	}
}

func TestCountAndWindows(t *testing.T) {
	out := []uint16{'A', SymBase, 'C', SymBase + 1, 'G', 'T', SymBase + 2, 'A'}
	if got := CountUndetermined(out); got != 3 {
		t.Fatalf("count %d", got)
	}
	fr := UndeterminedPerWindow(out, 4)
	if len(fr) != 2 || fr[0] != 0.5 || fr[1] != 0.25 {
		t.Fatalf("fractions %v", fr)
	}
	if UndeterminedPerWindow(out, 0) != nil {
		t.Fatal("zero window must yield nil")
	}
	// Trailing partial window below half size is dropped.
	fr = UndeterminedPerWindow(out[:5], 4)
	if len(fr) != 1 {
		t.Fatalf("partial window handling: %v", fr)
	}
}

func TestMaxOutputLimit(t *testing.T) {
	data := dna.Random(300_000, 25)
	payload, spans := fixture(t, data, 6)
	res, err := DecodeFrom(payload, spans[1].Event.StartBit, DecodeOptions{MaxOutput: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) < 10_000 || len(res.Out) > 10_000+258 {
		t.Fatalf("limit overshoot: %d", len(res.Out))
	}
	if res.Final {
		t.Fatal("must not have reached final block")
	}
}

func TestStopBit(t *testing.T) {
	data := dna.Random(300_000, 26)
	payload, spans := fixture(t, data, 6)
	if len(spans) < 4 {
		t.Skip("few blocks")
	}
	res, err := DecodeFrom(payload, spans[1].Event.StartBit, DecodeOptions{
		StopBit:     spans[3].Event.StartBit,
		RecordSpans: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EndBit != spans[3].Event.StartBit {
		t.Fatalf("EndBit %d, want %d", res.EndBit, spans[3].Event.StartBit)
	}
	if int64(len(res.Out)) != spans[3].OutStart-spans[1].OutStart {
		t.Fatalf("output %d bytes, want %d", len(res.Out), spans[3].OutStart-spans[1].OutStart)
	}
	if len(res.Spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(res.Spans))
	}
}

func TestBadStartBit(t *testing.T) {
	data := dna.Random(100_000, 27)
	payload, _ := fixture(t, data, 6)
	if _, err := DecodeFrom(payload, -1, DecodeOptions{}); err == nil {
		t.Fatal("negative bit accepted")
	}
	if _, err := DecodeFrom(payload, int64(len(payload))*8+1, DecodeOptions{}); err == nil {
		t.Fatal("past-end bit accepted")
	}
}

// Property: Narrow and Resolve agree on determined positions for
// arbitrary symbolic content.
func TestQuickNarrowResolveAgree(t *testing.T) {
	ctx := make([]byte, WindowSize)
	for j := range ctx {
		ctx[j] = byte(j*7 + 3)
	}
	f := func(raw []uint16) bool {
		out := make([]uint16, len(raw))
		for i, v := range raw {
			out[i] = v % (SymBase + WindowSize)
		}
		narrow := Narrow(out)
		resolved, err := Resolve(out, ctx, nil)
		if err != nil {
			return false
		}
		for i := range out {
			if out[i] < SymBase {
				if narrow[i] != byte(out[i]) || resolved[i] != byte(out[i]) {
					return false
				}
			} else {
				if narrow[i] != UndeterminedByte || resolved[i] != ctx[out[i]-SymBase] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResolveCountedMatchesCount pins ResolveCounted's symbol count to
// CountUndetermined and its bytes to Resolve, on both kernels (below
// and above resolveTabMin), odd lengths (a word-count tail), symbols at
// both extremes of the alphabet, and a corrupt entry.
func TestResolveCountedMatchesCount(t *testing.T) {
	ctx := make([]byte, WindowSize)
	for j := range ctx {
		ctx[j] = byte(j*7 + 3)
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 3, 4097, resolveTabMin - 1, resolveTabMin + 4103} {
		for _, every := range []int{0, 1, 2, 13, 5000} {
			out := make([]uint16, n)
			for i := range out {
				switch {
				case every > 0 && rng.Intn(every) == 0:
					out[i] = uint16(SymBase + rng.Intn(WindowSize))
				case i%97 == 0:
					out[i] = 255
				default:
					out[i] = uint16('A' + i%4)
				}
			}
			if n > 2 {
				out[1], out[2] = SymBase, SymBase+WindowSize-1
			}
			want, err := Resolve(out, ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, n)
			syms, err := ResolveCounted(got, out, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if syms != CountUndetermined(out) {
				t.Fatalf("n=%d every=%d: counted %d symbols, want %d", n, every, syms, CountUndetermined(out))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d every=%d: bytes differ from Resolve", n, every)
			}
			if n > 2 {
				out[n-1] = SymBase + WindowSize
				if _, err := ResolveCounted(got, out, ctx); !errors.Is(err, ErrSymbolRange) {
					t.Fatalf("n=%d every=%d: corrupt entry: err = %v", n, every, err)
				}
			}
		}
	}
}
