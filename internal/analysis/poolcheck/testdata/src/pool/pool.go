// Package pool is the poolcheck fixture. The acquire/release names
// mirror internal/tracked and internal/flate; the negative cases are
// shaped after the real hot paths (engine window hand-off, sink
// buffer transfer, Result ownership) so the analyzer is proven quiet
// on the idioms the repo actually uses.
package pool

import "errors"

var errStub = errors.New("stub")

func GetWindow() []byte                 { return make([]byte, 8) }
func PutWindow(w []byte)                { _ = w }
func getSymBuf() []byte                 { return make([]byte, 8) }
func putSymBuf(b []byte)                { _ = b }
func putTailBuf[T byte | uint16](b []T) { _ = b }
func use(b []byte)                      { _ = b }

type tailSink struct{ buf []byte }

func NewTailSink() *tailSink     { return &tailSink{} }
func (s *tailSink) Release()     { s.buf = nil }
func (s *tailSink) write(b byte) { s.buf = append(s.buf, b) }

// The generic sinks and buffers of internal/flate: acquired and
// released through explicit instantiations as well as inferred ones.
type slideSink[T byte | uint16] struct{ buf []T }

func NewSlideSink[T byte | uint16]() *slideSink[T] { return &slideSink[T]{} }
func (s *slideSink[T]) Release()                   { s.buf = nil }

func getPlainBuf[T byte | uint16, P any]() []T { return nil }

// --- true positives ---------------------------------------------------

// Regression shape for the class PR 2/5 reviews kept catching: an
// early error return that forgets the window.
func leakOnError(fail bool) error {
	w := GetWindow()
	if fail {
		return errStub // want `pooled value w \(from GetWindow.*may not be released`
	}
	PutWindow(w)
	return nil
}

func leakAtEnd() {
	b := getSymBuf()
	_ = len(b)
} // want `pooled value b \(from getSymBuf.*may not be released`

func discarded() {
	GetWindow() // want `result of GetWindow is discarded`
}

func discardedBlank() {
	_ = getSymBuf() // want `result of getSymBuf is discarded`
}

// Tail-pool values must never flow into the full-symbol pool: the
// pools hold different capacity classes (PR 5).
func mixedPools() {
	sink := NewTailSink()
	putSymBuf(sink.buf) // want `released via putSymBuf: wrong pool`
}

func wrongPool() {
	w := GetWindow()
	putTailBuf(w) // want `released via putTailBuf: wrong pool`
}

func doubleRelease() {
	w := GetWindow()
	PutWindow(w)
	PutWindow(w) // want `double release`
}

func useAfterRelease() byte {
	w := GetWindow()
	PutWindow(w)
	return w[0] // want `use of w after it was released`
}

func overwriteLeaks() {
	w := GetWindow()
	w = GetWindow() // want `overwritten before release`
	PutWindow(w)
}

// An explicitly instantiated acquire is still an acquire: the generic
// constructors stay under pool discipline (IndexExpr callee).
func leakInstantiated() int {
	s := NewSlideSink[uint16]()
	return len(s.buf) // want `pooled value s \(from NewSlideSink.*may not be released`
}

// Two type arguments (IndexListExpr callee).
func leakInstantiatedList() {
	b := getPlainBuf[byte, int]()
	_ = len(b)
} // want `pooled value b \(from getPlainBuf.*may not be released`

func discardedInstantiated() {
	NewSlideSink[byte]() // want `result of NewSlideSink is discarded`
}

// An explicitly instantiated release is still a release, pool identity
// included.
func wrongPoolInstantiated() {
	w := GetWindow()
	putTailBuf[byte](w) // want `released via putTailBuf: wrong pool`
}

// --- realistic negatives ---------------------------------------------

// Generic round trips: Release, or the tail put through an explicit
// instantiation.
func instantiatedRoundTrip(fail bool) {
	s := NewSlideSink[uint16]()
	if fail {
		putTailBuf[uint16](s.buf)
		return
	}
	t := NewSlideSink[byte]()
	t.Release()
	s.Release()
}

// Indexing a slice of funcs is not an instantiation, even when the
// slice shadows a release name: the call is opaque, so w escapes into
// it rather than being released, and the later use is legal.
func indexedFuncs(PutWindow []func([]byte)) {
	w := GetWindow()
	PutWindow[0](w)
	use(w)
}

// Mirrors engine.ResolveWindow: released on the failure path,
// ownership transferred to the caller on success.
func releaseOrTransfer(fail bool) ([]byte, error) {
	w := GetWindow()
	if fail {
		PutWindow(w)
		return nil, errStub
	}
	return w, nil
}

func ResolveWindow(n int) ([]byte, error) {
	if n < 0 {
		return nil, errStub
	}
	return GetWindow(), nil
}

// Regression (sweep of tracked_test.go): a two-value acquire returns
// nil and releases internally on error, so the err != nil branch
// carries no release obligation.
func errorContract(n int) error {
	w, err := ResolveWindow(n)
	if err != nil {
		return err
	}
	PutWindow(w)
	return nil
}

// The inverted condition: only the success branch owns the window.
func errorContractInverted(n int) {
	if w, err := ResolveWindow(n); err == nil {
		PutWindow(w)
	}
}

// Mirrors DecodeFrom: deferred release covers every return.
func deferredRelease(n int) int {
	b := getSymBuf()
	defer putSymBuf(b)
	if n < 0 {
		return 0
	}
	return len(b)
}

// Deferred closure release (the engine's cleanup closures).
func deferredClosure() {
	w := GetWindow()
	defer func() {
		PutWindow(w)
	}()
	use(w)
}

// Mirrors sink construction: the buffer escapes into the struct that
// owns it from then on (its Release returns it to the pool).
func escapeToOwner(s *tailSink) {
	b := getSymBuf()
	s.buf = b
}

// Mirrors the sequential window hand-off in the engine: each
// iteration releases the previous window and adopts the next.
func windowHandoff(n int) {
	w := GetWindow()
	for i := 0; i < n; i++ {
		next := GetWindow()
		PutWindow(w)
		w = next
	}
	PutWindow(w)
}

// TailSink round trip: Release is the allowed release for the
// tail-pool acquire; reads of the value do not escape it.
func tailRoundTrip(fail bool) error {
	sink := NewTailSink()
	sink.write(1)
	if fail {
		sink.Release()
		return errStub
	}
	if len(sink.buf) == 0 {
		sink.Release()
		return nil
	}
	sink.Release()
	return nil
}

// len/cap/copy are reads, not ownership transfers.
func pureReads(dst []byte) int {
	w := GetWindow()
	n := copy(dst, w)
	n += len(w) + cap(w)
	PutWindow(w)
	return n
}

// Passing the value to an unknown function transfers ownership for
// analysis purposes (the engine hands windows to resolve workers);
// a later release through the original name is still fine.
func passThenRelease(dst []byte) {
	w := GetWindow()
	use(w)
	PutWindow(w)
	_ = dst
}

// Regression (sweep of internal/core, internal/tracked): an acquire
// feeding a composite literal or a field assignment transfers
// ownership into the owning structure — ByteSink{Out: getPlainBuf()},
// chunk.plainTail = GetWindow() — and must not count as discarded.
type chunk struct{ tail []byte }

func acquireIntoOwner(c *chunk) *tailSink {
	c.tail = GetWindow()
	return &tailSink{buf: getSymBuf()}
}

// Conditional release in a switch with a default: every path settles
// ownership.
func switchPaths(mode int) []byte {
	b := getSymBuf()
	switch mode {
	case 0:
		putSymBuf(b)
		return nil
	case 1:
		return b // transfer
	default:
		putSymBuf(b)
		return nil
	}
}
