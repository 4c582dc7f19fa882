package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	pugz "repro"
	"repro/internal/fastq"
)

// Corpus file names inside a corpus directory. The directory is also
// the serve workload's catalog (serve.ScanDir), so it holds exactly the
// two blobs and the level-6 sidecar index.
const (
	blob6    = "fastq6.gz"
	blob1    = "fastq1.gz"
	sidecar6 = blob6 + ".gzx"
	// generator names the text generator in the cache key, so a cache
	// written by a different generator is never consulted.
	generator = "fastq.Generate"
	// sidecarSpacing is the checkpoint spacing of the level-6 sidecar
	// and of every index the benchmark builds.
	sidecarSpacing = 1 << 20
	// probeReads is the size of the fixed text (~1 MB) whose compressed
	// forms identify the compressor in the cache key.
	probeReads = 4000
)

// corpus is one generated FASTQ text and its two compressed forms. The
// text is regenerated from (reads, seed) on every run and is the oracle
// for every operation.
type corpus struct {
	dir     string // serve catalog directory
	reads   int
	seed    int64
	text    []byte
	gz6     []byte
	gz1     []byte
	sidecar []byte // Marshal'd checkpoint index of gz6
	// compressor is a digest of Compress's output on a small fixed
	// text. It is part of the cache key, so a changed compressor never
	// reads files an earlier one wrote.
	compressor string
	// generated reports whether this run had to (re)build the cached
	// files; genTime is how long that took. Neither is part of setup_s.
	generated bool
	genTime   time.Duration
}

// loadCorpus regenerates the text and loads the compressed files from
// the cache under cacheRoot, (re)building any that are missing or do not
// match the text's CRC-32 and ISIZE.
func loadCorpus(cacheRoot string, reads int, seed int64) (*corpus, error) {
	digest, err := compressorDigest()
	if err != nil {
		return nil, err
	}
	c := &corpus{
		dir:        filepath.Join(cacheRoot, fmt.Sprintf("%s-r%d-s%d-z%s", generator, reads, seed, digest)),
		reads:      reads,
		seed:       seed,
		text:       fastq.Generate(fastq.GenOptions{Reads: reads, Seed: seed}),
		compressor: digest,
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	crc := crc32.ChecksumIEEE(c.text)
	t0 := time.Now()
	if c.gz6, err = c.loadGz(blob6, 6, crc); err != nil {
		return nil, err
	}
	if c.gz1, err = c.loadGz(blob1, 1, crc); err != nil {
		return nil, err
	}
	if c.sidecar, err = c.loadSidecar(); err != nil {
		return nil, err
	}
	c.genTime = time.Since(t0)
	return c, nil
}

// compressorDigest returns the first 12 hex digits of the SHA-256 of
// Compress's output at levels 6 and 1 on a fixed ~1 MB text.
func compressorDigest() (string, error) {
	text := fastq.Generate(fastq.GenOptions{Reads: probeReads, Seed: 1})
	h := sha256.New()
	for _, level := range []int{6, 1} {
		gz, err := pugz.Compress(text, level)
		if err != nil {
			return "", fmt.Errorf("compress level %d: %w", level, err)
		}
		h.Write(gz)
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

// loadGz returns the cached level-n file, rebuilding it with the repo's
// zlib-semantics compressor when it is absent or stale.
func (c *corpus) loadGz(name string, level int, crc uint32) ([]byte, error) {
	path := filepath.Join(c.dir, name)
	if gz, err := os.ReadFile(path); err == nil && trailerMatches(gz, crc, len(c.text), level) {
		return gz, nil
	}
	c.generated = true
	gz, err := pugz.Compress(c.text, level)
	if err != nil {
		return nil, fmt.Errorf("compress level %d: %w", level, err)
	}
	if !trailerMatches(gz, crc, len(c.text), level) {
		return nil, fmt.Errorf("compress level %d: trailer does not match the text", level)
	}
	return gz, writeAtomic(path, gz)
}

// trailerMatches checks a gzip file's CRC-32 and ISIZE trailer against
// the regenerated text, and its header's level class against level.
func trailerMatches(gz []byte, crc uint32, size, level int) bool {
	if len(gz) < 18 {
		return false
	}
	class, err := pugz.Classify(gz)
	if err != nil {
		return false
	}
	want := pugz.ClassNormal
	if level == 1 {
		want = pugz.ClassLowest
	}
	t := gz[len(gz)-8:]
	return class == want &&
		binary.LittleEndian.Uint32(t) == crc &&
		binary.LittleEndian.Uint32(t[4:]) == uint32(size)
}

// loadSidecar returns the cached checkpoint index of gz6, rebuilding it
// when absent or when it does not load against gz6 at the text's size.
func (c *corpus) loadSidecar() ([]byte, error) {
	path := filepath.Join(c.dir, sidecar6)
	if blob, err := os.ReadFile(path); err == nil && !c.generated {
		if ix, err := pugz.LoadIndex(c.gz6, blob); err == nil && ix.Size() == int64(len(c.text)) {
			return blob, nil
		}
	}
	c.generated = true
	ix, err := pugz.BuildIndex(c.gz6, sidecarSpacing)
	if err != nil {
		return nil, fmt.Errorf("sidecar index: %w", err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		return nil, fmt.Errorf("sidecar index: %w", err)
	}
	return blob, writeAtomic(path, blob)
}

// writeAtomic writes data to path through a temporary file and a
// rename, so an interrupted run never leaves a truncated cache entry.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
