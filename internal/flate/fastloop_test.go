package flate

import (
	"bytes"
	stdflate "compress/flate"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// decodeBoth decodes payload once with the fast loop enabled and once
// with NoFast pinning the scalar reference, returning both outputs and
// recorded spans. The two decodes must agree byte-for-byte and
// span-for-span; callers assert on the returned values.
func decodeBoth(t *testing.T, payload []byte) (fast, scalar []byte, fastSpans, scalarSpans []BlockSpan) {
	t.Helper()
	run := func(noFast bool) ([]byte, []BlockSpan) {
		r, err := bitio.NewReaderAt(payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		sink := &ByteSink{}
		sink.RecordBlocks()
		dec := NewDecoder(Options{NoFast: noFast})
		dec.SetTrackStart(true)
		if err := dec.DecodeStream(r, sink); err != nil {
			t.Fatalf("noFast=%v: %v", noFast, err)
		}
		return sink.Out, sink.Blocks
	}
	fast, fastSpans = run(false)
	scalar, scalarSpans = run(true)
	return
}

func assertSameDecode(t *testing.T, payload []byte, want []byte) {
	t.Helper()
	fast, scalar, fs, ss := decodeBoth(t, payload)
	if !bytes.Equal(fast, scalar) {
		t.Fatalf("fast/scalar output mismatch: %d vs %d bytes", len(fast), len(scalar))
	}
	if want != nil && !bytes.Equal(fast, want) {
		t.Fatalf("fast output differs from original: %d vs %d bytes", len(fast), len(want))
	}
	if len(fs) != len(ss) {
		t.Fatalf("span count mismatch: %d vs %d", len(fs), len(ss))
	}
	for i := range fs {
		if fs[i] != ss[i] {
			t.Fatalf("span %d mismatch: fast %+v scalar %+v", i, fs[i], ss[i])
		}
	}
}

// TestFastScalarParityLevels pins the fast loop to the scalar loop on
// stdlib streams at every compression level (0 = stored blocks,
// HuffmanOnly = literal-dense fixed-style trees).
func TestFastScalarParityLevels(t *testing.T) {
	data := textData(200_000, 71)
	levels := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, stdflate.HuffmanOnly}
	for _, level := range levels {
		assertSameDecode(t, stdCompress(t, data, level), data)
	}
}

// TestFastScalarParityRandomInputs covers input shapes that stress
// different table layouts: incompressible bytes (literal-heavy,
// near-uniform code lengths), long runs (overlapping matches), and
// tiny inputs that finish inside the < 48-bit tail.
func TestFastScalarParityRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	shapes := []func(n int) []byte{
		func(n int) []byte { // incompressible
			b := make([]byte, n)
			rng.Read(b)
			return b
		},
		func(n int) []byte { // RLE-style runs of varying period
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(i / (1 + i%7) % 251)
			}
			return b
		},
		func(n int) []byte { // skewed alphabet -> short literal codes
			b := make([]byte, n)
			for i := range b {
				b[i] = "eetta o"[rng.Intn(7)]
			}
			return b
		},
	}
	for si, shape := range shapes {
		for _, n := range []int{0, 1, 2, 3, 7, 300, 65_000} {
			data := shape(n)
			for _, level := range []int{1, 6, 9} {
				payload := stdCompress(t, data, level)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("shape %d n=%d level=%d: panic %v", si, n, level, r)
						}
					}()
					assertSameDecode(t, payload, data)
				}()
			}
		}
	}
}

// TestFastTailSinkParity pins the window sinks' fast loop to their
// scalar path, including Limit stops at awkward offsets (mid-match,
// exactly on a match end, one past a packed literal pair), StopBit
// halts (on a block start, mid-block, combined with a Limit), and the
// TailSink's sliding compaction across multi-window outputs. The
// TailSink and the ByteSink must each agree fast vs scalar on output,
// spans, StoppedAt and error.
func TestFastTailSinkParity(t *testing.T) {
	data := textData(300_000, 73) // > 4 windows: exercises slide()
	payload := stdCompress(t, data, 6)
	_, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) < 3 {
		t.Fatalf("want >= 3 blocks, got %d", len(spans))
	}

	type decoded struct {
		total     int64
		out       []byte // trailing window (TailSink) or whole output (ByteSink)
		blocks    []BlockSpan
		stoppedAt int64
		err       error
	}
	decode := func(noFast bool, sink FastTokenSink) error {
		r, err := bitio.NewReaderAt(payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(Options{NoFast: noFast})
		dec.SetTrackStart(true)
		return dec.DecodeStream(r, sink)
	}
	runTail := func(noFast bool, limit, stopBit int64) decoded {
		sink := NewTailSink(nil)
		defer sink.Release()
		sink.Limit, sink.StopBit = limit, stopBit
		sink.RecordBlocks()
		err := decode(noFast, sink)
		w := make([]byte, WindowSize)
		sink.WindowInto(w)
		return decoded{sink.Len(), w, sink.Blocks, sink.StoppedAt, err}
	}
	runFlat := func(noFast bool, limit, stopBit int64) decoded {
		sink := &ByteSink{}
		sink.Limit, sink.StopBit = limit, stopBit
		sink.RecordBlocks()
		err := decode(noFast, sink)
		return decoded{sink.Len(), sink.Output(), sink.Blocks, sink.StoppedAt, err}
	}

	type input struct{ limit, stopBit int64 }
	var inputs []input
	for _, limit := range []int64{0, 1, 2, 3, 100, WindowSize - 1, WindowSize, WindowSize + 1,
		tailSlide, tailSlide + 7, 299_999, 300_000} {
		inputs = append(inputs, input{limit: limit})
	}
	mid := spans[len(spans)/2].Event.StartBit
	inputs = append(inputs,
		input{stopBit: spans[1].Event.StartBit}, // halt on a block start
		input{stopBit: mid},
		input{stopBit: mid + 1},                // mid-block: halt at the next block
		input{limit: WindowSize, stopBit: mid}, // the Limit fires first
	)
	for _, in := range inputs {
		for _, sink := range []struct {
			name string
			run  func(noFast bool, limit, stopBit int64) decoded
		}{{"TailSink", runTail}, {"ByteSink", runFlat}} {
			f, s := sink.run(false, in.limit, in.stopBit), sink.run(true, in.limit, in.stopBit)
			if f.total != s.total {
				t.Fatalf("%s %+v: total mismatch fast=%d scalar=%d", sink.name, in, f.total, s.total)
			}
			if !bytes.Equal(f.out, s.out) {
				t.Fatalf("%s %+v: output mismatch", sink.name, in)
			}
			if (f.err == nil) != (s.err == nil) || (f.err != nil && f.err.Error() != s.err.Error()) {
				t.Fatalf("%s %+v: error mismatch fast=%v scalar=%v", sink.name, in, f.err, s.err)
			}
			if f.stoppedAt != s.stoppedAt {
				t.Fatalf("%s %+v: StoppedAt fast=%d scalar=%d", sink.name, in, f.stoppedAt, s.stoppedAt)
			}
			if in.stopBit > 0 && in.limit == 0 && f.stoppedAt < in.stopBit {
				t.Fatalf("%s %+v: StopBit halt not taken (StoppedAt %d)", sink.name, in, f.stoppedAt)
			}
			if len(f.blocks) != len(s.blocks) {
				t.Fatalf("%s %+v: span count fast=%d scalar=%d", sink.name, in, len(f.blocks), len(s.blocks))
			}
			for i := range f.blocks {
				if f.blocks[i] != s.blocks[i] {
					t.Fatalf("%s %+v: span %d fast %+v scalar %+v", sink.name, in, i, f.blocks[i], s.blocks[i])
				}
			}
		}
	}
}

// TestFastPrefixSeededChunk decodes a mid-stream block sequence with a
// seeded context prefix — the skip-mode chunk shape — and checks the
// fast loop resolves prefix back-references identically to scalar.
func TestFastPrefixSeededChunk(t *testing.T) {
	data := textData(250_000, 74)
	payload := stdCompress(t, data, 6)
	_, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a block boundary past the first window so the chunk needs
	// real history.
	var start BlockSpan
	for _, sp := range spans {
		if sp.OutStart > WindowSize {
			start = sp
			break
		}
	}
	if start.OutStart == 0 {
		t.Skip("no block boundary past first window")
	}

	run := func(noFast bool) []byte {
		r, err := bitio.NewReaderAt(payload, start.Event.StartBit)
		if err != nil {
			t.Fatal(err)
		}
		sink := &ByteSink{}
		sink.Out = append(sink.Out, data[start.OutStart-WindowSize:start.OutStart]...)
		sink.Prefix = WindowSize
		dec := NewDecoder(Options{NoFast: noFast})
		if err := dec.DecodeStream(r, sink); err != nil {
			t.Fatalf("noFast=%v: %v", noFast, err)
		}
		return sink.Output()
	}
	fast, scalar := run(false), run(true)
	if !bytes.Equal(fast, scalar) {
		t.Fatalf("prefix chunk fast/scalar mismatch: %d vs %d bytes", len(fast), len(scalar))
	}
	if want := data[start.OutStart:]; !bytes.Equal(fast, want) {
		t.Fatalf("prefix chunk output wrong: %d vs %d bytes", len(fast), len(want))
	}
}

// TestFastErrorParity checks anomalous streams fail with the same
// canonical error whether the fast loop runs or not — the fast kernel
// must bail without consuming so the scalar loop reports the error.
func TestFastErrorParity(t *testing.T) {
	data := textData(50_000, 75)
	for _, level := range []int{1, 6, 9} {
		payload := stdCompress(t, data, level)
		// Truncations at many points, including mid-stream.
		for _, cut := range []int{len(payload) / 3, len(payload) / 2, len(payload) - 1} {
			for _, noFast := range []bool{false, true} {
				if _, err := (&testDecode{noFast: noFast}).run(payload[:cut]); err == nil {
					t.Fatalf("level %d cut %d noFast=%v: expected error", level, cut, noFast)
				}
			}
		}
	}
	// A match reaching before the stream start must yield
	// ErrDistanceTooFar on both paths (fixed block, dist 1 at offset 0).
	bad := fixedBlockMatchBeforeStart(t)
	for _, noFast := range []bool{false, true} {
		_, err := (&testDecode{noFast: noFast, track: true}).run(bad)
		if err == nil {
			t.Fatalf("noFast=%v: expected ErrDistanceTooFar", noFast)
		}
	}
}

type testDecode struct {
	noFast bool
	track  bool
}

func (td *testDecode) run(payload []byte) ([]byte, error) {
	r, err := bitio.NewReaderAt(payload, 0)
	if err != nil {
		return nil, err
	}
	sink := &ByteSink{}
	dec := NewDecoder(Options{NoFast: td.noFast})
	if td.track {
		dec.SetTrackStart(true)
	}
	if err := dec.DecodeStream(r, sink); err != nil {
		return nil, err
	}
	return sink.Out, nil
}

// fixedBlockMatchBeforeStart hand-assembles a final fixed block whose
// first token is a match (length 3, distance 1) with no prior output.
func fixedBlockMatchBeforeStart(t *testing.T) []byte {
	t.Helper()
	var bits []uint8 // one entry per bit, LSB-first stream order
	push := func(v uint32, n uint, msbFirst bool) {
		for i := uint(0); i < n; i++ {
			var b uint8
			if msbFirst {
				b = uint8(v >> (n - 1 - i) & 1)
			} else {
				b = uint8(v >> i & 1)
			}
			bits = append(bits, b)
		}
	}
	push(1, 1, false)      // BFINAL
	push(1, 2, false)      // BTYPE fixed
	push(257-256, 7, true) // length symbol 257 (code 0000001): 7-bit code
	// 257 has code value 0b0000001? Fixed tree: syms 256..279 are 7-bit
	// codes 0000000..0010111; 257 -> 0000001, sent MSB-first.
	push(0, 5, true) // distance symbol 0 (5-bit code 00000): dist 1
	push(0, 7, true) // end of block (code 0000000)
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		out[i/8] |= b << (i % 8)
	}
	return out
}
