package flate

import (
	"slices"

	"repro/internal/bitio"
	"repro/internal/huffman"
)

// This file holds the multi-symbol token decode loop: the sink-side
// half of the fast path set up by decodeCompressedWith. One kernel,
// decodeFast, is compiled for both window element types — byte for
// exact output, uint16 for symbolic output against an undetermined
// context — and the two window sinks (FlatSink, SlideSink) run it
// directly over their buffers, so the hot loop has no interface calls
// per token, one 64-bit refill per iteration, and a bounds-checked
// copy kernel for matches. Sinks without a window (CountingSink, the
// engine's probe sinks) simply don't implement FastTokenSink and keep
// the scalar path.

// Elem is the element type of a decode window: byte for exact output,
// uint16 for symbolic output (values >= 256 name bytes of an unknown
// initial context, see internal/tracked).
type Elem interface{ byte | uint16 }

// FastCtx bundles what a FastTokenSink needs for one fast-loop call.
// It is owned by the Decoder and valid only for the duration of the
// FastTokens invocation.
type FastCtx struct {
	R    *bitio.Reader
	Lit  *huffman.LitLenFast
	Dist *huffman.DistFast
	// Track is Decoder.SetTrackStart's setting: a back-reference
	// reaching before the stream's first produced byte must bail so the
	// scalar loop reports ErrDistanceTooFar (or ErrDanglingRef)
	// canonically.
	Track bool
	// Produced is the stream-total output count before this call; a
	// tracking sink derives its minimum legal back-reference from it.
	Produced int64

	sink FastTokenSink
}

// FastTokenSink extends Visitor for sinks that expose their output
// window to the fast loop. FastTokens decodes as many tokens as it
// can directly into the sink's buffer and returns the number of
// entries emitted, whether the end-of-block code was consumed, and an
// error (Stop for limit halts). On (eob=false, err=nil) return the
// reader is positioned bit-exactly at an undecoded token: either fewer
// than fastMinBits bits remain buffered or the next token needs the
// scalar loop (invalid/rare code, out-of-range back-reference).
type FastTokenSink interface {
	Visitor
	FastTokens(fc *FastCtx) (produced int64, eob bool, err error)
}

const (
	// fastMinBits is the buffered-bit floor for one fast iteration: a
	// worst-case token is litlen code (15) + length extra (5) + dist
	// code (15) + dist extra (13) = 48 bits, so a single refill
	// (>= 56 bits away from EOF) always covers a whole token.
	fastMinBits = 48
	// fastSlack is the output headroom a caller must keep beyond the
	// kernel's write budget: one maximal match plus a packed pair.
	fastSlack = MaxMatch + 2
	// fastGrow is the capacity step a FlatSink takes ahead of the
	// kernel when its headroom runs out (append doubling dominates once
	// the buffer is large).
	fastGrow = 4096
)

type fastStatus uint8

const (
	fastMore fastStatus = iota // out of bits, room, or budget
	fastEOB                    // end-of-block code consumed
	fastBail                   // next token needs the scalar loop
)

// decodeFast decodes tokens from r into out[w:]. It stops before
// decoding a token once w >= maxW (so a limit-bounded caller stops on
// the same token the scalar loop would) and never writes at or beyond
// maxW-1+MaxMatch; callers guarantee len(out) >= maxW-1+MaxMatch.
// minSrc is the lowest legal match source index (0, or the
// before-stream-start floor when tracking). Bits are consumed only
// for fully emitted tokens: on fastBail the reader still points at
// the offending token for the scalar loop to re-decode. Matches copy
// whole elements, so back-references into a symbolic context copy
// symbols exactly as the scalar Match does.
func decodeFast[T Elem](r *bitio.Reader, lit *huffman.LitLenFast, dist *huffman.DistFast, out []T, w, maxW, minSrc int) (int, fastStatus) {
	for {
		r.Refill()
		if r.Bits() < fastMinBits {
			return w, fastMore
		}
		if w >= maxW {
			return w, fastMore
		}
		x := r.Acc()
		e := lit.Lookup(x)
		if e.Kind() == huffman.FastSub {
			e = lit.SubLookup(e, x)
		}
		switch e.Kind() {
		case huffman.FastLit2:
			if w+2 > maxW {
				// Budget for one entry only: emit the first literal so
				// the stop position matches the scalar loop exactly.
				out[w] = T(e.Lit1())
				w++
				r.Consume(e.Lit1Bits())
				continue
			}
			out[w] = T(e.Lit1())
			out[w+1] = T(e.Lit2())
			w += 2
			r.Consume(e.NBits())
		case huffman.FastLit1:
			out[w] = T(e.Lit1())
			w++
			r.Consume(e.NBits())
		case huffman.FastLen:
			used := e.NBits()
			length := int(e.LenBase()) + (int(x>>used) & (1<<e.LenExtra() - 1))
			used += e.LenExtra()
			de := dist.Lookup(x >> used)
			if de.Sub() {
				de = dist.SubLookup(de, x>>used)
			}
			if !de.Direct() {
				return w, fastBail
			}
			dcb := de.NBits()
			dval := int(de.Base()) + (int(x>>(used+dcb)) & (1<<de.ExtraBits() - 1))
			used += dcb + de.ExtraBits()
			src := w - dval
			if src < minSrc {
				return w, fastBail
			}
			r.Consume(used)
			if dval >= length {
				copy(out[w:w+length], out[src:src+length])
				w += length
			} else {
				// Overlapping match (RLE-style): replicate the
				// available span in doubling rounds.
				end := w + length
				for w < end {
					w += copy(out[w:end], out[src:w])
				}
			}
		case huffman.FastEOB:
			r.Consume(e.NBits())
			return w, fastEOB
		default: // huffman.FastInvalid
			return w, fastBail
		}
	}
}

// FastTokens implements FastTokenSink: tokens decode straight into the
// append buffer, growing capacity ahead of the kernel, with the Limit
// budget translated into a write bound.
func (s *FlatSink[T]) FastTokens(fc *FastCtx) (int64, bool, error) {
	w0 := len(s.Out)
	minSrc := 0
	if fc.Track {
		// dist > produced  <=>  src < len-at-call - produced-at-call;
		// with a seeded Prefix this floor is exactly the prefix size.
		if m := w0 - int(fc.Produced); m > 0 {
			minSrc = m
		}
	}
	eob := false
	var err error
	for {
		fc.R.Refill()
		if fc.R.Bits() < fastMinBits {
			break
		}
		if cap(s.Out)-len(s.Out) < fastSlack {
			s.Out = slices.Grow(s.Out, fastGrow)
		}
		w := len(s.Out)
		maxW := cap(s.Out) - MaxMatch
		if s.Limit > 0 {
			if lim := w + int(s.Limit-s.Len()); lim < maxW {
				maxW = lim
			}
		}
		buf := s.Out[:cap(s.Out)]
		w, st := decodeFast(fc.R, fc.Lit, fc.Dist, buf, w, maxW, minSrc)
		s.Out = buf[:w]
		if err = s.full(s.Len()); err != nil {
			break
		}
		if st == fastEOB {
			eob = true
			break
		}
		if st == fastBail {
			break
		}
	}
	return int64(len(s.Out) - w0), eob, err
}

// FastTokens implements FastTokenSink over the sliding tail window:
// the kernel runs between slide compactions, and the Limit budget is
// translated into a write bound so the decode stops on exactly the
// token the scalar loop would stop on.
func (s *SlideSink[T]) FastTokens(fc *FastCtx) (int64, bool, error) {
	t0 := s.total
	eob := false
	var err error
	for {
		fc.R.Refill()
		if fc.R.Bits() < fastMinBits {
			break
		}
		s.slide(fastSlack)
		w0 := len(s.buf)
		minSrc := 0
		if fc.Track {
			if m := w0 - int(s.total); m > 0 {
				minSrc = m
			}
		}
		maxW := tailSlide // cap is tailSlide+MaxMatch: in budget
		if s.Limit > 0 {
			if lim := w0 + int(s.Limit-s.total); lim < maxW {
				maxW = lim
			}
		}
		w, st := decodeFast(fc.R, fc.Lit, fc.Dist, s.buf[:cap(s.buf)], w0, maxW, minSrc)
		s.total += int64(w - w0)
		s.buf = s.buf[:w]
		if err = s.full(s.total); err != nil {
			break
		}
		if st == fastEOB {
			eob = true
			break
		}
		if st == fastBail {
			break
		}
	}
	return s.total - t0, eob, err
}
