package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
)

// checker counts attempted and failed operations. Every operation is
// checked against the regenerated oracle; a failed check is counted,
// never fatal, so one bad answer cannot hide the rest of the run.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	firstErr string

	// plantByte and plantStatus corrupt the next checked body or
	// status once. Only the self-test sets them, to prove that a wrong
	// answer is counted as a failure.
	plantByte   atomic.Bool
	plantStatus atomic.Bool
}

// op records one attempted operation and whether it failed.
func (c *checker) op(err error) bool {
	c.attempted.Add(1)
	if err == nil {
		return true
	}
	c.failed.Add(1)
	c.mu.Lock()
	if c.firstErr == "" {
		c.firstErr = err.Error()
	}
	c.mu.Unlock()
	return false
}

// sameBytes compares an operation's output with the oracle's.
func (c *checker) sameBytes(what string, got, want []byte) error {
	if c.plantByte.CompareAndSwap(true, false) && len(got) > 0 {
		got = append([]byte(nil), got...)
		got[len(got)/2] ^= 0xff
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d bytes, want %d", what, len(got), len(want))
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: output differs from the oracle", what)
	}
	return nil
}

// sameStatus compares an HTTP status with the expected one.
func (c *checker) sameStatus(what string, got, want int) error {
	if c.plantStatus.CompareAndSwap(true, false) {
		got = 500
	}
	if got != want {
		return fmt.Errorf("%s: status %d, want %d", what, got, want)
	}
	return nil
}

// oracleWriter compares a decoded stream against the oracle as it is
// written, so streamed decoders are checked without buffering their
// whole output.
type oracleWriter struct {
	c    *checker
	want []byte
	off  int
	err  error
}

func (w *oracleWriter) Write(p []byte) (int, error) {
	if w.err == nil {
		end := min(w.off+len(p), len(w.want))
		if err := w.c.sameBytes("stream", p, w.want[w.off:end]); err != nil {
			w.err = fmt.Errorf("at offset %d: %w", w.off, err)
		}
	}
	w.off += len(p)
	return len(p), nil
}

// done reports the first mismatch, or a short stream.
func (w *oracleWriter) done() error {
	if w.err != nil {
		return w.err
	}
	if w.off != len(w.want) {
		return fmt.Errorf("stream: %d bytes, want %d", w.off, len(w.want))
	}
	return nil
}
