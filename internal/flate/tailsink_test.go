package flate

import (
	"bytes"
	"compress/flate"
	"testing"

	"repro/internal/bitio"
)

// deflateStd compresses data with the stdlib so the decoder under test
// sees independently produced streams.
func deflateStd(t *testing.T, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func genText(n int, seed byte) []byte {
	out := make([]byte, n)
	x := uint32(seed) + 1
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = "ACGTacgtNn\n"[x%11]
	}
	return out
}

// TestTailSinkMatchesByteSink: count, spans, and the trailing window
// must agree with a full ByteSink decode, with and without a seeded
// context.
func TestTailSinkMatchesByteSink(t *testing.T) {
	data := genText(300_000, 5)
	payload := deflateStd(t, data, 6)

	full, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, data) {
		t.Fatal("reference decode mismatch")
	}

	r, err := bitio.NewReaderAt(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewTailSink(nil)
	defer sink.Release()
	sink.RecordBlocks()
	dec := NewDecoder(Options{})
	dec.SetTrackStart(true)
	if err := dec.DecodeStream(r, sink); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != int64(len(data)) {
		t.Fatalf("Len = %d, want %d", sink.Len(), len(data))
	}
	if len(sink.Blocks) != len(spans) {
		t.Fatalf("%d spans, want %d", len(sink.Blocks), len(spans))
	}
	for i := range spans {
		if sink.Blocks[i] != spans[i] {
			t.Fatalf("span %d: %+v vs %+v", i, sink.Blocks[i], spans[i])
		}
	}
	w := make([]byte, WindowSize)
	sink.WindowInto(w)
	if !bytes.Equal(w, data[len(data)-WindowSize:]) {
		t.Fatal("trailing window mismatch")
	}
}

// TestTailSinkCaptures: armed block-boundary offsets must snapshot the
// exact history window a full decode would have had there, including a
// boundary inside the first window (context-padded) and one the decode
// stops at (flush case).
func TestTailSinkCaptures(t *testing.T) {
	data := genText(400_000, 9)
	ctx := genText(WindowSize, 13)
	// Compress with the seeded dictionary semantics: simplest is to
	// decode a plain stream and treat ctx as the pre-start window; the
	// sink only cares that references resolve, and stdlib streams never
	// reach before their start, so captures exercise the padding path
	// via small offsets.
	payload := deflateStd(t, data, 6)
	_, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) < 4 {
		t.Fatal("want >=4 blocks")
	}
	targets := []int64{spans[1].OutStart, spans[2].OutStart, spans[len(spans)-1].OutStart}
	r, err := bitio.NewReaderAt(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewTailSink(ctx)
	defer sink.Release()
	sink.CaptureAt(targets)
	sink.Limit = targets[len(targets)-1]
	dec := NewDecoder(Options{})
	for sink.Len() < targets[len(targets)-1] {
		final, err := dec.DecodeBlock(r, sink)
		if err != nil {
			if err == Stop {
				break
			}
			t.Fatal(err)
		}
		if final {
			break
		}
	}
	sink.FlushCaptures()
	if sink.CapturesMissed() != 0 {
		t.Fatalf("missed captures: %s", sink.MissedCapture())
	}
	got := sink.Captured()
	if len(got) != len(targets) {
		t.Fatalf("%d captures, want %d", len(got), len(targets))
	}
	for i, off := range targets {
		want := make([]byte, WindowSize)
		if off >= WindowSize {
			copy(want, data[off-WindowSize:off])
		} else {
			copy(want, ctx[off:])
			copy(want[WindowSize-off:], data[:off])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("capture %d (offset %d): window mismatch", i, off)
		}
	}
}

// TestByteSinkBlockEndWithoutStart: a BlockEnd with no prior
// BlockStart must be a no-op on a recording ByteSink — it used to
// index Blocks[-1] and panic. Regression for the PR-5 bugfix; the
// TailSink is covered by the same contract.
func TestByteSinkBlockEndWithoutStart(t *testing.T) {
	s := &ByteSink{}
	s.RecordBlocks()
	if err := s.BlockEnd(42); err != nil {
		t.Fatalf("ByteSink.BlockEnd: %v", err)
	}
	if len(s.Blocks) != 0 {
		t.Fatalf("ByteSink recorded %d spans", len(s.Blocks))
	}
	// Non-recording sinks were already safe; keep them that way.
	if err := (&ByteSink{}).BlockEnd(42); err != nil {
		t.Fatal(err)
	}

	ts := NewTailSink(nil)
	defer ts.Release()
	ts.RecordBlocks()
	if err := ts.BlockEnd(42); err != nil {
		t.Fatalf("TailSink.BlockEnd: %v", err)
	}
	if len(ts.Blocks) != 0 {
		t.Fatalf("TailSink recorded %d spans", len(ts.Blocks))
	}

	// And a normal recorded decode still annotates its spans.
	payload := deflateStd(t, genText(4096, 3), 6)
	out, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || spans[len(spans)-1].OutEnd != int64(len(out)) {
		t.Fatalf("span recording broken: %+v", spans)
	}
}

// TestSlideSinkBounded: outputs far larger than the slide threshold
// (long literal runs, an overlapping match, a maximum-distance match)
// keep the sliding buffer within its pooled size, for both element
// types.
func TestSlideSinkBounded(t *testing.T) {
	checkSlideBounded(t, NewSlideSink[byte](nil))
	checkSlideBounded(t, NewSlideSink[uint16](nil))
}

func checkSlideBounded[T Elem](t *testing.T, s *SlideSink[T]) {
	t.Helper()
	defer s.Release()
	for i := 0; i < 3*WindowSize; i++ {
		if err := s.Literal(byte(i % 251)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Match(MaxMatch, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Match(100, WindowSize); err != nil {
		t.Fatal(err)
	}
	if len(s.buf) > tailSlide+MaxMatch {
		t.Fatalf("%T: buffer grew to %d entries", s, len(s.buf))
	}
}
