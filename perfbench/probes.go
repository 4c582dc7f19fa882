package main

import (
	"fmt"
	"time"

	pugz "repro"
	"repro/internal/blockfind"
	"repro/internal/flate"
	"repro/internal/gzipx"
	"repro/internal/tracked"
)

// probes runs each single-layer probe once on the level-6 member, in
// the traced run only, and checks each against the oracle. They call
// internal packages directly, so a layer's own speed can be read apart
// from the engine that schedules it.
func probes(e *env, r *report) error {
	c := e.c
	start, end, err := gzipx.PayloadBounds(c.gz6)
	if err != nil {
		return err
	}
	payload := c.gz6[start:end]
	// probe times one call into a layer under its own span.
	probe := func(layer, name string, fn func() error) (time.Duration, error) {
		sp := e.tr.start(e.opID.Add(1), spanRef{}, "probe", layer, name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		sp.finish()
		if err != nil {
			err = fmt.Errorf("probe %s: %w", name, err)
		}
		return d, err
	}

	// flate: exact sequential decode of the whole member.
	var out []byte
	d, err := probe("flate", "DecompressAll", func() (err error) {
		out, err = flate.DecompressAll(payload, 0)
		return err
	})
	if err == nil {
		err = e.chk.sameBytes("flate.DecompressAll", out, c.text)
	}
	if !e.chk.op(err) {
		return err
	}
	out = nil
	r.value("flate.decode_mbps", "MB/s", mbps(len(c.text), d))

	// tracked: symbolic pass 1 from where a 2-chunk plan starts chunk 1,
	// then Resolve with the true preceding window.
	_, st, err := pugz.Decompress(c.gz6, pugz.Options{Threads: 2, MinChunk: min(128<<10, len(payload)/4)})
	if err != nil {
		return fmt.Errorf("probe plan: %w", err)
	}
	if len(st.Chunks) < 2 {
		return fmt.Errorf("probe plan: %d chunks, want 2", len(st.Chunks))
	}
	bit, outStart := st.Chunks[1].StartBit, st.Chunks[0].OutBytes
	var res *tracked.Result
	d, err = probe("tracked", "DecodeFrom", func() (err error) {
		res, err = tracked.DecodeFrom(payload, bit, tracked.DecodeOptions{})
		return err
	})
	if !e.chk.op(err) {
		return err
	}
	defer res.Release()
	r.value("tracked.pass1_mbps", "MB/s", mbps(len(res.Out), d))
	ctx := make([]byte, tracked.WindowSize)
	copy(ctx[max(0, tracked.WindowSize-int(outStart)):], c.text[max(0, outStart-tracked.WindowSize):outStart])
	var resolved []byte
	d, err = probe("tracked", "Resolve", func() (err error) {
		resolved, err = tracked.Resolve(res.Out, ctx, nil)
		return err
	})
	if err == nil {
		err = e.chk.sameBytes("tracked.Resolve", resolved, c.text[outStart:])
	}
	if !e.chk.op(err) {
		return err
	}
	r.value("tracked.resolve_mbps", "MB/s", mbps(len(resolved), d))

	// blockfind: sync to a block from the payload's midpoint; the
	// found bit must be a true block start.
	blocks, err := pugz.ScanBlocks(c.gz6)
	if err != nil {
		return fmt.Errorf("probe blockfind oracle: %w", err)
	}
	isStart := make(map[int64]bool, len(blocks))
	for _, b := range blocks {
		isStart[b.StartBit] = true
	}
	mid := int64(len(payload)) * 4
	var found int64
	d, err = probe("blockfind", "Finder.Next", func() (err error) {
		found, err = blockfind.New().Next(payload, mid)
		if err == nil && !isStart[found] {
			err = fmt.Errorf("bit %d is not a block start", found)
		}
		return err
	})
	if !e.chk.op(err) {
		return err
	}
	r.value("blockfind.sync_ms", "ms", ms(d))
	r.value("blockfind.skip_bits", "count", float64(found-mid))
	return nil
}
