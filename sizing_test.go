package pugz

// Decompress sizes its output buffer from the gzip ISIZE trailer, an
// untrusted field: these tests pin that a lying or misleading trailer
// only ever costs a copy (the output stays byte-exact, and checksum
// verification still reports the lie), and that an honest one lets the
// whole output decode into a single buffer.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// withISize returns a copy of gz whose final 4 bytes (the last
// member's ISIZE) read isize.
func withISize(gz []byte, isize uint32) []byte {
	b := append([]byte{}, gz...)
	binary.LittleEndian.PutUint32(b[len(b)-4:], isize)
	return b
}

func TestDecompressSizeHintLies(t *testing.T) {
	small := gzCorpus(t, 100, 81, 6) // ~25 KB of text
	big := gzCorpus(t, 400, 82, 6)   // ~100 KB of text
	bigText := genFastq(400, 82)
	isize := uint32(len(bigText))

	cases := []struct {
		name string
		gz   []byte // honest file: the oracle's input
		lie  int64  // the final ISIZE written over the honest one; -1 keeps it
	}{
		{"honest", big, -1},
		{"zero", big, 0},
		{"one-too-small", big, int64(isize) - 1},
		{"too-large", big, 2 * int64(isize)},
		{"max", big, 0xFFFFFFFF},
		// Multi-member: the final trailer describes the last member only,
		// so it misleads the first member's sizing even when honest.
		{"multi-small-last", append(append([]byte{}, big...), small...), -1},
		{"multi-big-last", append(append([]byte{}, small...), big...), -1},
		{"multi-max", append(append([]byte{}, small...), big...), 0xFFFFFFFF},
	}
	for _, tc := range cases {
		want, err := stdGunzip(tc.gz)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tc.name, err)
		}
		gz, lies := tc.gz, tc.lie >= 0
		if lies {
			gz = withISize(tc.gz, uint32(tc.lie))
		}
		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/threads=%d", tc.name, threads), func(t *testing.T) {
				o := Options{Threads: threads, MinChunk: 4 << 10}
				got, _, err := Decompress(gz, o)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("output differs from stdlib: %d bytes, want %d", len(got), len(want))
				}
				o.VerifyChecksums = true
				_, _, err = Decompress(gz, o)
				switch {
				case lies && !errors.Is(err, ErrChecksum):
					t.Fatalf("VerifyChecksums on a lying ISIZE: err = %v, want ErrChecksum", err)
				case !lies && err != nil:
					t.Fatalf("VerifyChecksums on an honest file: %v", err)
				}
			})
		}
	}
}

// TestDecompressAllocBound pins the single-buffer design: with an
// honest ISIZE, chunk 0 decodes into the returned buffer, the symbolic
// chunk resolves into its slot, and nothing is copied or regrown, so
// one call allocates well under three times its output. A trailer that
// claims 4 GiB may only cost what the engine's reservation cap allows,
// 8x the payload against this file's ~4x expansion, so about twice the
// honest figure, whatever the payload size (internal/core's
// TestSizeHintCapped pins the cap itself).
func TestDecompressAllocBound(t *testing.T) {
	data := genFastq(15000, 71) // ~4 MB of FASTQ
	// The stdlib compressor: this test sits in the race-enabled group,
	// where the repository's own level-6 compressor is slow.
	honest := stdGzip(t, data, 6)
	for _, tc := range []struct {
		name  string
		gz    []byte
		limit uint64 // times the output
	}{
		{"honest", honest, 3},
		{"isize-max", withISize(honest, 0xFFFFFFFF), 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			out, st, err := Decompress(tc.gz, Options{Threads: 2})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) {
				t.Fatal("output mismatch")
			}
			if len(st.Chunks) < 2 {
				t.Fatalf("decoded in %d chunk(s); the bound is about the two-pass path", len(st.Chunks))
			}
			alloc := m1.TotalAlloc - m0.TotalAlloc
			t.Logf("allocated %.1f MiB for %.1f MiB of output (%.2fx), %.1f MiB compressed",
				float64(alloc)/(1<<20), float64(len(out))/(1<<20), float64(alloc)/float64(len(out)),
				float64(len(tc.gz))/(1<<20))
			if limit := tc.limit * uint64(len(out)); alloc > limit {
				t.Fatalf("Decompress allocated %d bytes, more than %dx its %d-byte output", alloc, tc.limit, len(out))
			}
		})
	}
}
