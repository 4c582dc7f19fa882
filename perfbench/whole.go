package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"time"

	pugz "repro"
)

// whole is the whole-file family: each op decodes the level-6 file
// three ways — pugz.Decompress, pugz.NewReader over a plain io.Reader,
// and stdlib compress/gzip — in an order that rotates from op to op.
type whole struct {
	e    *env
	ops  int           // ops made so far
	last time.Duration // the last op's duration

	// End-to-end samples in MB/s, indexed by mode (untraced, traced).
	dec, stream, speedup [2]samples

	// Engine phases from Stats, every op (the library's own numbers).
	syncMs, pass1Ms, pass2SeqMs, pass2ParMs samples
	imbalance, unresolved, assembleMs       samples
	// Reader figures, every op.
	ttfbMs, batches, maxWindowMB samples
	// Allocation deltas, traced ops only (ReadMemStats stops the world).
	allocMB, mallocs, readerAllocMB samples
}

// plainReader hides bytes.Reader's WriterTo and ReaderAt so NewReader
// sees a plain stream, as it would from a pipe.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// setup runs the untimed-by-ops first Decompress that pays heap growth
// and page faults; its duration is part of setup_s.
func (w *whole) setup() error {
	out, _, err := pugz.Decompress(w.e.c.gz6, pugz.Options{Threads: w.e.threads})
	if err != nil {
		return fmt.Errorf("whole set-up: %w", err)
	}
	return w.e.chk.sameBytes("whole set-up", out, w.e.c.text)
}

// run makes ops until n have been made in all; with fill set it then
// makes more while the last op's duration still fits before the
// deadline.
func (w *whole) run(n int, deadline time.Time, fill bool) {
	for w.ops < n {
		w.op()
	}
	for fill && time.Until(deadline) > w.last {
		w.op()
	}
}

func (w *whole) op() {
	t0 := time.Now()
	i := w.ops
	w.ops++
	defer func() { w.last = time.Since(t0) }()
	tr := w.e.opTracer(i)
	op := w.e.opID.Add(1)
	root := tr.start(op, spanRef{}, "whole", "bench", "op")
	var dec, std float64 // this op's MB/s, 0 if the decode failed
	for k := 0; k < 3; k++ {
		// Each decode starts from the same heap state, so the garbage of
		// the previous one is not charged to it.
		runtime.GC()
		switch (i + k) % 3 {
		case 0:
			dec = w.decompress(tr, op, root)
		case 1:
			w.streamOp(tr, op, root)
		case 2:
			std = w.stdlib(tr, op, root)
		}
	}
	// The speed-up pairs the two decodes of one op, so a change in the
	// host's speed between ops cancels.
	if dec > 0 && std > 0 {
		w.speedup[modeOf(tr)].add(dec / std)
	}
	root.finish()
}

func mbps(n int, d time.Duration) float64 { return float64(n) / 1e6 / d.Seconds() }

// decompress returns the call's MB/s, or 0 if it failed.
func (w *whole) decompress(tr *tracer, op int64, root spanRef) float64 {
	e := w.e
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp := tr.start(op, root, "whole", "pugz", "Decompress")
	t0 := time.Now()
	out, st, err := pugz.Decompress(e.c.gz6, pugz.Options{Threads: e.threads})
	d := time.Since(t0)
	sp.finish()
	if tr != nil {
		runtime.ReadMemStats(&m1)
	}
	if err == nil {
		err = e.chk.sameBytes("Decompress", out, e.c.text)
	}
	if !e.chk.op(err) {
		return 0
	}
	rate := mbps(len(out), d)
	w.dec[modeOf(tr)].add(rate)
	if tr != nil {
		w.allocMB.add(float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20))
		w.mallocs.add(float64(m1.Mallocs - m0.Mallocs))
	}

	// The engine's phases run back to back inside the call; the rest
	// of the call's wall time is output assembly in the root package.
	var off time.Duration
	for _, ph := range []struct {
		name string
		d    time.Duration
		s    *samples
	}{
		{"sync", st.SyncWall, &w.syncMs},
		{"pass1", st.Pass1Wall, &w.pass1Ms},
		{"pass2_seq", st.Pass2SeqWall, &w.pass2SeqMs},
		{"pass2_par", st.Pass2ParWall, &w.pass2ParMs},
	} {
		sp.child("core", ph.name, off, ph.d)
		off += ph.d
		ph.s.addDur(ph.d)
	}
	w.assembleMs.addDur(d - st.TotalWall)
	lo, hi := time.Duration(1<<62), time.Duration(0)
	var unresolved int64
	for _, c := range st.Chunks {
		lo, hi = min(lo, c.Find+c.Pass1), max(hi, c.Find+c.Pass1)
		unresolved += c.SymbolsUnresolved
	}
	if lo > 0 {
		w.imbalance.add(float64(hi) / float64(lo))
	}
	w.unresolved.add(float64(unresolved))
	return rate
}

func (w *whole) streamOp(tr *tracer, op int64, root spanRef) {
	e := w.e
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp := tr.start(op, root, "whole", "pugz", "NewReader")
	t0 := time.Now()
	ow := &oracleWriter{c: e.chk, want: e.c.text}
	// 1 MiB of compressed input per thread and batch cuts the 8 MB
	// level-6 file into four batches on two threads. At the default
	// 4 MiB per thread the file is a single batch: the reader runs as
	// one Decompress, and its per-op rate varies three times as much.
	opts := pugz.StreamOptions{Threads: e.threads, BatchCompressedBytes: e.threads << 20}
	r, err := pugz.NewReader(plainReader{bytes.NewReader(e.c.gz6)}, opts)
	var ttfb time.Duration
	if err == nil {
		for err == nil {
			var n int
			n, err = r.Read(e.buf)
			if n > 0 && ttfb == 0 {
				ttfb = time.Since(t0)
			}
			ow.Write(e.buf[:n])
		}
		if err == io.EOF {
			err = nil
		}
	}
	d := time.Since(t0)
	sp.finish()
	if tr != nil {
		runtime.ReadMemStats(&m1)
	}
	var st pugz.ReaderStats
	if r != nil {
		st = r.Stats()
		r.Close()
	}
	if err == nil {
		err = ow.done()
	}
	if !e.chk.op(err) {
		return
	}
	w.stream[modeOf(tr)].add(mbps(ow.off, d))
	w.ttfbMs.addDur(ttfb)
	w.batches.add(float64(st.Batches))
	w.maxWindowMB.add(float64(st.MaxBufferedCompressed) / (1 << 20))
	if tr != nil {
		w.readerAllocMB.add(float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20))
	}
}

// stdlib returns the decode's MB/s, or 0 if it failed.
func (w *whole) stdlib(tr *tracer, op int64, root spanRef) float64 {
	e := w.e
	sp := tr.start(op, root, "whole", "stdlib", "compress/gzip")
	t0 := time.Now()
	ow := &oracleWriter{c: e.chk, want: e.c.text}
	zr, err := gzip.NewReader(bytes.NewReader(e.c.gz6))
	if err == nil {
		_, err = io.CopyBuffer(ow, zr, e.buf)
	}
	d := time.Since(t0)
	sp.finish()
	if err == nil {
		err = ow.done()
	}
	if !e.chk.op(err) {
		return 0
	}
	return mbps(ow.off, d)
}

// endToEnd returns the family's end-to-end metrics over one mode's ops.
func (w *whole) endToEnd(r *report, mode int) {
	r.quantileOf("decompress_mbps", "MB/s", w.dec[mode], 0.5)
	r.quantileOf("stream_mbps", "MB/s", w.stream[mode], 0.5)
	r.quantileOf("speedup_vs_stdlib", "ratio", w.speedup[mode], 0.5)
}

// perLayer reports the engine, assembly and reader figures.
func (w *whole) perLayer(r *report) {
	r.quantileOf("core.sync_ms", "ms", w.syncMs, 0.5)
	r.quantileOf("core.pass1_ms", "ms", w.pass1Ms, 0.5)
	r.quantileOf("core.pass2_seq_ms", "ms", w.pass2SeqMs, 0.5)
	r.quantileOf("core.pass2_par_ms", "ms", w.pass2ParMs, 0.5)
	r.quantileOf("core.pass1_imbalance", "ratio", w.imbalance, 0.5)
	r.quantileOf("core.unresolved_syms", "count", w.unresolved, 0.5)
	r.quantileOf("pugz.assemble_ms", "ms", w.assembleMs, 0.5)
	r.quantileOf("pugz.alloc_mb_per_op", "MiB", w.allocMB, 0.5)
	r.quantileOf("pugz.mallocs_per_op", "count", w.mallocs, 0.5)
	r.quantileOf("reader.ttfb_ms", "ms", w.ttfbMs, 0.5)
	r.quantileOf("reader.alloc_mb_per_op", "MiB", w.readerAllocMB, 0.5)
	r.quantileOf("reader.batches", "count", w.batches, 0.5)
	r.quantileOf("srcbuf.max_window_mb", "MiB", w.maxWindowMB, 0.5)
}
