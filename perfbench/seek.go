package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	pugz "repro"
	"repro/internal/gzipx"
	"repro/internal/tracked"
)

const (
	readLen     = 64 << 10 // bytes per indexed and cold ReadAt
	raMaxOutput = 4 << 20  // RandomAccessAt output cap
)

// The seek family's op kinds.
const (
	kindRead = iota // indexed File.ReadAt
	kindRA          // File.RandomAccessAt
	kindCold        // cold ReadAt on a fresh File
	nKinds
)

// seek is the random-access family over the level-1 file: one closed-
// loop client sends a seeded mix of indexed File.ReadAt, index-free
// File.RandomAccessAt and cold ReadAt on a fresh unindexed File.
type seek struct {
	e   *env
	rng *rand.Rand
	// Offsets follow additive (Weyl) sequences, one per kind for the
	// counted ops and one per kind for the ops that fill the rest of a
	// round: each is uniform over its range, and a short run still
	// covers the range evenly. All start at seeded points except the
	// counted accesses' and cold reads', which start at 0: whether an
	// access resolves depends on the file's local content, so with a few
	// dozen accesses seeded offsets alone would move ra_resolved_frac by
	// ~0.1 from seed to seed; and a cold read's time grows with its
	// offset, so the median of a few dozen seeded ones would move with
	// the seed as well as with the code. Like the corpus, those probe
	// sets are fixed, and the quality figures change only with the code.
	pos     [nKinds][2]weyl
	counted [nKinds]int // counted ops made so far
	made    [nKinds]int // all ops made so far; alternates tracing
	weight  [nKinds]float64

	f       *pugz.File // indexed by set-up
	ix      *pugz.Index
	hdrLen  int64
	blockAt map[int64]int64 // true block start bit -> output offset
	raLimit int64           // RandomAccessAt offsets stay below this byte

	readMs, raMs, coldMs [2]samples
	resolved, accesses   int
	clean, records       int

	// Per-layer.
	buildS, sidecarKB                          samples
	ixReadMs, inflatedKB, coldInflMB, coldCkpt samples
	findMs, skipKB, framingMs, decodeMs        samples
	delayKB                                    samples
	undet, textBytes                           int64
}

// weyl is the additive recurrence x_{k+1} = x_k + 1/phi (mod 1).
type weyl struct{ x float64 }

func (w *weyl) next(n int64) int64 {
	w.x = math.Mod(w.x+0.6180339887498949, 1)
	return int64(w.x * float64(n))
}

// prepare maps the level-1 file's blocks for the RandomAccessAt oracle.
// It is not part of set-up: a user of the library never needs it.
func (s *seek) prepare() error {
	c := s.e.c
	m, err := gzipx.ParseHeader(c.gz1)
	if err != nil {
		return err
	}
	s.hdrLen = int64(m.HeaderLen)
	blocks, err := pugz.ScanBlocks(c.gz1)
	if err != nil {
		return fmt.Errorf("seek oracle: %w", err)
	}
	s.blockAt = make(map[int64]int64, len(blocks))
	for _, b := range blocks {
		s.blockAt[b.StartBit] = b.OutStart
	}
	// A block sync needs several whole blocks after the candidate to
	// confirm it, so offsets stop short of the stream's last blocks.
	last := max(len(blocks)-8, 1)
	s.raLimit = s.hdrLen + blocks[last].StartBit/8
	s.rng = rand.New(rand.NewSource(s.e.seed))
	for k := range s.pos {
		s.pos[k] = [2]weyl{{s.rng.Float64()}, {s.rng.Float64()}}
	}
	s.pos[kindRA][0] = weyl{}
	s.pos[kindCold][0] = weyl{}
	// Ops that fill a round keep the counted ops' mix.
	k := s.e.counts
	s.weight = [nKinds]float64{float64(k.readAts), float64(k.accesses), float64(k.colds)}
	return nil
}

// setup opens the level-1 file and builds its 1 MiB checkpoint index.
func (s *seek) setup() error {
	t0 := time.Now()
	f, err := pugz.NewFileBytes(s.e.c.gz1, pugz.FileOptions{Threads: s.e.threads})
	if err != nil {
		return fmt.Errorf("seek set-up: %w", err)
	}
	ix, err := f.BuildIndex(sidecarSpacing)
	if err != nil {
		return fmt.Errorf("seek set-up: %w", err)
	}
	s.buildS.add(time.Since(t0).Seconds())
	blob, err := ix.Marshal()
	if err != nil {
		return fmt.Errorf("seek set-up: %w", err)
	}
	s.sidecarKB.add(float64(len(blob)) / 1024)
	if s.f != nil {
		s.f.Close()
	}
	s.f, s.ix = f, ix
	return nil
}

func (s *seek) close() {
	if s.f != nil {
		s.f.Close()
	}
}

// run makes counted ops, in a seeded order, until each kind has made
// the given number in all; with fill set it then makes ops of the same
// mix until the deadline.
func (s *seek) run(reads, accesses, colds int, deadline time.Time, fill bool) {
	var kinds []int
	for k, n := range [nKinds]int{reads, accesses, colds} {
		for ; n > s.counted[k]; n-- {
			kinds = append(kinds, k)
		}
	}
	s.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, k := range kinds {
		s.counted[k]++
		s.op(k, true)
	}
	for fill && time.Now().Before(deadline) {
		u := s.rng.Float64() * (s.weight[0] + s.weight[1] + s.weight[2])
		k := kindRead
		for ; k < nKinds-1 && u >= s.weight[k]; k++ {
			u -= s.weight[k]
		}
		s.op(k, false)
	}
}

func (s *seek) op(kind int, counted bool) {
	tr := s.e.opTracer(s.made[kind])
	s.made[kind]++
	op := s.e.opID.Add(1)
	root := tr.start(op, spanRef{}, "seek", "bench", "op")
	defer root.finish()
	pos := &s.pos[kind][0]
	if !counted {
		pos = &s.pos[kind][1]
	}
	switch kind {
	case kindRead:
		s.readAt(tr, op, root, pos)
		return
	case kindRA:
		s.randomAccess(tr, op, root, pos, counted)
	case kindCold:
		s.cold(tr, op, root, pos)
	}
	// An access or a cold read leaves tens of MiB of garbage; collect
	// it (untimed) so the collection is not charged to the next op.
	runtime.GC()
}

func (s *seek) readAt(tr *tracer, op int64, root spanRef, pos *weyl) {
	e := s.e
	off := pos.next(int64(len(e.c.text) - readLen))
	p := e.buf[:readLen]
	before := s.f.InflatedBytes()
	sp := tr.start(op, root, "seek", "pugz", "File.ReadAt")
	t0 := time.Now()
	n, err := s.f.ReadAt(p, off)
	d := time.Since(t0)
	sp.finish()
	if err == nil {
		err = e.chk.sameBytes("File.ReadAt", p[:n], e.c.text[off:off+readLen])
	}
	if !e.chk.op(err) {
		return
	}
	s.readMs[modeOf(tr)].addDur(d)
	s.inflatedKB.add(float64(s.f.InflatedBytes()-before) / 1024)
	if tr == nil {
		return
	}
	// The same read straight from the checkpoint index: the gap to
	// File.ReadAt is File's own overhead.
	sp = tr.start(op, root, "seek", "gzindex", "Index.ReadAt")
	t0 = time.Now()
	n, err = s.ix.ReadAt(e.c.gz1, p, off)
	d = time.Since(t0)
	sp.finish()
	if err == nil {
		err = e.chk.sameBytes("Index.ReadAt", p[:n], e.c.text[off:off+readLen])
	}
	if e.chk.op(err) {
		s.ixReadMs.addDur(d)
	}
}

// randomAccess makes one index-free access; the quality figures count
// only the counted accesses, whose offsets are the same in every run.
func (s *seek) randomAccess(tr *tracer, op int64, root spanRef, pos *weyl, counted bool) {
	e := s.e
	off := s.hdrLen + pos.next(s.raLimit-s.hdrLen)
	sp := tr.start(op, root, "seek", "pugz", "File.RandomAccessAt")
	t0 := time.Now()
	res, err := s.f.RandomAccessAt(off, pugz.RandomAccessOptions{MaxOutput: raMaxOutput})
	d := time.Since(t0)
	sp.finish()
	var undet int64
	if err == nil {
		undet, err = s.checkRA(res)
	}
	if !e.chk.op(err) {
		return
	}
	s.raMs[modeOf(tr)].addDur(d)
	if counted {
		s.accesses++
		if res.FirstResolvedBlock >= 0 {
			s.resolved++
			s.delayKB.add(float64(res.DelayBytes) / 1024)
		}
		for _, r := range res.Records {
			s.records++
			if r.Unambiguous() {
				s.clean++
			}
		}
		s.undet += undet
		s.textBytes += int64(len(res.Text))
	}
	if tr == nil {
		return
	}
	// Decompose the access: block sync at the same offset, and the
	// framing pass over the returned text; the rest is the decode.
	sp = tr.start(op, root, "seek", "blockfind", "File.FindBlockAt")
	t0 = time.Now()
	bit, err := s.f.FindBlockAt(off)
	find := time.Since(t0)
	sp.finish()
	if err == nil && bit != res.BlockBit {
		err = fmt.Errorf("FindBlockAt(%d) = bit %d, RandomAccessAt started at %d", off, bit, res.BlockBit)
	}
	if !e.chk.op(err) {
		return
	}
	sp = tr.start(op, root, "seek", "framing", "FASTQ.Records")
	t0 = time.Now()
	recs := pugz.FASTQFraming{}.Records(res.Text, false, false)
	fr := time.Since(t0)
	sp.finish()
	if len(recs) == 0 && len(res.Records) > 0 {
		e.chk.op(fmt.Errorf("FASTQ.Records found no records where RandomAccessAt found %d", len(res.Records)))
		return
	}
	s.findMs.addDur(find)
	s.skipKB.add(float64(bit/8+s.hdrLen-off) / 1024)
	s.framingMs.addDur(fr)
	s.decodeMs.addDur(d - find - fr)
}

// checkRA checks an index-free access against the oracle: decoding
// must start at a true block boundary, and every determined byte must
// equal the oracle's byte at that output offset. It returns the number
// of undetermined bytes (a '?' where the oracle has another byte; '?'
// is also a FASTQ quality character).
func (s *seek) checkRA(res *pugz.RandomAccessResult) (int64, error) {
	text := s.e.c.text
	out, ok := s.blockAt[res.BlockBit]
	if !ok {
		return 0, fmt.Errorf("RandomAccessAt: bit %d is not a block start", res.BlockBit)
	}
	if s.e.chk.plantByte.CompareAndSwap(true, false) && len(res.Text) > 0 {
		res.Text[len(res.Text)/2] ^= 0x20
	}
	if int64(len(res.Text)) > int64(len(text))-out {
		return 0, fmt.Errorf("RandomAccessAt: %d bytes past output offset %d", len(res.Text), out)
	}
	var undet int64
	for i, b := range res.Text {
		want := text[out+int64(i)]
		if b == want {
			continue
		}
		if b != tracked.UndeterminedByte {
			return 0, fmt.Errorf("RandomAccessAt: byte %d after block bit %d is %q, want %q", i, res.BlockBit, b, want)
		}
		undet++
	}
	return undet, nil
}

func (s *seek) cold(tr *tracer, op int64, root spanRef, pos *weyl) {
	e := s.e
	off := pos.next(int64(len(e.c.text) - readLen))
	p := e.buf[:readLen]
	sp := tr.start(op, root, "seek", "pugz", "cold File.ReadAt")
	t0 := time.Now()
	f, err := pugz.NewFileBytes(e.c.gz1, pugz.FileOptions{Threads: e.threads})
	var n int
	if err == nil {
		n, err = f.ReadAt(p, off)
	}
	d := time.Since(t0)
	sp.finish()
	if err == nil {
		err = e.chk.sameBytes("cold File.ReadAt", p[:n], e.c.text[off:off+readLen])
	}
	if f != nil {
		s.coldInflMB.add(float64(f.InflatedBytes()) / (1 << 20))
		s.coldCkpt.add(float64(f.Checkpoints()))
		f.Close()
	}
	if e.chk.op(err) {
		s.coldMs[modeOf(tr)].addDur(d)
	}
}

func (s *seek) endToEnd(r *report, mode int) {
	r.quantileOf("readat_p50_ms", "ms", s.readMs[mode], 0.5)
	r.quantileOf("readat_p90_ms", "ms", s.readMs[mode], 0.9)
	r.quantileOf("ra_p50_ms", "ms", s.raMs[mode], 0.5)
	r.quantileOf("ra_p90_ms", "ms", s.raMs[mode], 0.9)
	r.quantileOf("cold_readat_p50_ms", "ms", s.coldMs[mode], 0.5)
}

// quality reports the Table I figures over the run's counted accesses.
func (s *seek) quality(r *report) {
	r.set("ra_clean_frac", metric{Value: float64(s.clean) / float64(s.records), Unit: "ratio", Samples: s.records})
	r.set("ra_resolved_frac", metric{Value: float64(s.resolved) / float64(s.accesses), Unit: "ratio", Samples: s.accesses})
}

func (s *seek) perLayer(r *report) {
	r.quantileOf("gzindex.build_s", "s", s.buildS, 0.5)
	r.value("gzindex.checkpoints", "count", float64(s.ix.Checkpoints()))
	r.value("gzindex.sidecar_kb", "KiB", s.sidecarKB.median())
	r.quantileOf("gzindex.readat_p50_ms", "ms", s.ixReadMs, 0.5)
	r.quantileOf("file.readat_inflated_kb", "KiB", s.inflatedKB, 0.5)
	r.quantileOf("file.cold_inflated_mb", "MiB", s.coldInflMB, 0.5)
	r.quantileOf("file.cold_checkpoints", "count", s.coldCkpt, 0.5)
	r.quantileOf("blockfind.ra_find_ms", "ms", s.findMs, 0.5)
	r.quantileOf("blockfind.ra_skip_kb", "KiB", s.skipKB, 0.5)
	r.quantileOf("framing.records_ms", "ms", s.framingMs, 0.5)
	r.quantileOf("ra.decode_ms", "ms", s.decodeMs, 0.5)
	r.quantileOf("ra.delay_kb_p50", "KiB", s.delayKB, 0.5)
	r.value("ra.undetermined_frac", "ratio", float64(s.undet)/float64(s.textBytes))
}
