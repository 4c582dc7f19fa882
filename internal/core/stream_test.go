package core

import (
	"bytes"
	"testing"

	"repro/internal/dna"
)

func TestStreamMatchesWholeFile(t *testing.T) {
	data := corpusFastq(12000, 41)
	for _, level := range []int{1, 6, 9} {
		payload := corpusPayload(t, 12000, 41, level)
		var got []byte
		res, err := DecompressStream(payload, StreamOptions{
			Threads:              4,
			BatchCompressedBytes: 192 << 10,
			MinChunk:             8 << 10,
		}, func(p []byte) error {
			got = append(got, p...)
			return nil
		})
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("level %d: mismatch (%d vs %d bytes)", level, len(got), len(data))
		}
		if res.Batches < 2 {
			t.Fatalf("level %d: expected multiple batches, got %d", level, res.Batches)
		}
		if res.OutBytes != int64(len(data)) {
			t.Fatalf("level %d: OutBytes %d", level, res.OutBytes)
		}
		// The end bit must agree with the whole-file engine.
		_, m, err := DecompressPayload(payload, Options{Threads: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.PayloadEndBit != m.PayloadEndBit {
			t.Fatalf("level %d: end bit %d vs %d", level, res.PayloadEndBit, m.PayloadEndBit)
		}
	}
}

func TestStreamBatchesBoundMemory(t *testing.T) {
	data := dna.Random(3_000_000, 42)
	payload := mustCompress(t, data, 6)
	maxBatch := 0
	var got []byte
	_, err := DecompressStream(payload, StreamOptions{
		Threads:              3,
		BatchCompressedBytes: 128 << 10,
		MinChunk:             8 << 10,
	}, func(p []byte) error {
		if len(p) > maxBatch {
			maxBatch = len(p)
		}
		got = append(got, p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	// A 128 KiB compressed batch cannot legitimately inflate to more
	// than ~20x for DNA-like data; the bound proves batches are
	// actually bounded rather than one giant emit.
	if maxBatch > 4<<20 {
		t.Fatalf("batch of %d bytes: batching is not bounding memory", maxBatch)
	}
}

func TestStreamEmitError(t *testing.T) {
	data := dna.Random(500_000, 43)
	payload := mustCompress(t, data, 6)
	wantErr := bytes.ErrTooLarge // any sentinel
	_, err := DecompressStream(payload, StreamOptions{
		Threads:              2,
		BatchCompressedBytes: 64 << 10,
		MinChunk:             8 << 10,
	}, func(p []byte) error {
		return wantErr
	})
	if err == nil {
		t.Fatal("emit error not propagated")
	}
}

func TestStreamTruncated(t *testing.T) {
	data := dna.Random(500_000, 44)
	payload := mustCompress(t, data, 6)
	_, err := DecompressStream(payload[:len(payload)/2], StreamOptions{
		Threads:              2,
		BatchCompressedBytes: 64 << 10,
		MinChunk:             8 << 10,
	}, func(p []byte) error { return nil })
	if err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestStreamSingleBatch(t *testing.T) {
	data := dna.Random(100_000, 45)
	payload := mustCompress(t, data, 6)
	var got []byte
	res, err := DecompressStream(payload, StreamOptions{
		Threads:              4,
		BatchCompressedBytes: 64 << 20, // whole file in one batch
	}, func(p []byte) error {
		got = append(got, p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 1 {
		t.Fatalf("batches %d", res.Batches)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestStreamSequentialMode(t *testing.T) {
	data := dna.Random(800_000, 46)
	payload := mustCompress(t, data, 6)
	var got []byte
	_, err := DecompressStream(payload, StreamOptions{
		Threads:              4,
		BatchCompressedBytes: 128 << 10,
		MinChunk:             8 << 10,
		Sequential:           true,
	}, func(p []byte) error {
		got = append(got, p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sequential-mode mismatch")
	}
}
