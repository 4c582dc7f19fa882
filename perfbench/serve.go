package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	pugz "repro"
	"repro/internal/serve"
	"repro/internal/serve/metrics"
)

const (
	maxRange = 64 << 10 // largest ranged GET
	pSeq     = 0.5      // share of requests that continue a client's cursor
	// Request headers that carry the trace context from the client's
	// span to the handler's.
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

// blobs served by the serve family, both holding the corpus text.
var serveBlobs = []string{blob6, blob1}

// serveFam is the served-read family: serve.New over the corpus
// directory (the level-6 blob with its sidecar index, the level-1 blob
// indexed in the background during set-up), reached over loopback
// through httptest.Server by nproc closed-loop clients.
type serveFam struct {
	e         *env
	srv       *serve.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *http.Client // shared by the clients, one idle connection each
	clients   []*serveClient
	elapsed   time.Duration // time spent in client bursts

	mu                sync.Mutex
	lat               [2]samples // client latency, correct 206s only
	seqMs, randMs     samples
	handlerMs         samples
	okCount           [2]int
	served, inflated  int64
	hits, misses      int64
	evictions, copyEr int64
	buildMs           samples
}

// setup starts a server, HEADs every blob (opening its handle and
// kicking the level-1 index build), and waits for the build to finish.
func (v *serveFam) setup() error {
	e := v.e
	cat, err := serve.ScanDir(e.c.dir)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{Catalog: cat, File: pugz.FileOptions{Threads: e.threads}, IndexSpacing: sidecarSpacing})
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	if e.tr != nil {
		h = v.timed(h)
	}
	ts := httptest.NewServer(h)
	v.close()
	v.srv, v.ts = srv, ts
	// Every client keeps its connection between requests, so latency
	// never includes a TCP set-up, however many clients there are.
	v.transport = ts.Client().Transport.(*http.Transport).Clone()
	v.transport.MaxIdleConnsPerHost = e.threads
	v.transport.MaxConnsPerHost = 0
	client := &http.Client{Transport: v.transport}
	v.client = client
	for _, b := range serveBlobs {
		req, err := http.NewRequest(http.MethodHead, ts.URL+"/blobs/"+b, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("serve set-up: HEAD %s: %w", b, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(e.c.text)) {
			return fmt.Errorf("serve set-up: HEAD %s: status %d, length %d", b, resp.StatusCode, resp.ContentLength)
		}
	}
	met := srv.Metrics()
	deadline := time.Now().Add(2 * time.Minute)
	for met.IndexBuildsDone.Value()+met.IndexBuildErrors.Value() < met.IndexBuilds.Value() || met.IndexBuilds.Value() == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("serve set-up: background index build did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	if n := met.IndexBuildErrors.Value(); n > 0 {
		return fmt.Errorf("serve set-up: %d background index builds failed", n)
	}
	v.buildMs.add(float64(met.IndexBuildNanos.Value()) / 1e6 / float64(met.IndexBuildsDone.Value()))
	return nil
}

// timed wraps the server's handler to time each request server-side
// and, for traced requests, record the handler's span under the
// client's.
func (v *serveFam) timed(h http.Handler) http.Handler {
	tr := v.e.tr
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		var sp spanRef
		if op != 0 {
			sp = tr.start(op, spanRef{s: span{ID: parent}}, "serve", "serve", "Handler")
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		sp.finish()
		if r.Header.Get("Range") != "" {
			v.mu.Lock()
			v.handlerMs.addDur(d)
			v.mu.Unlock()
		}
	})
}

func (v *serveFam) close() {
	if v.ts != nil {
		v.transport.CloseIdleConnections()
		v.ts.Close()
		v.srv.Close()
	}
}

// serveClient is one closed-loop client's state, kept across bursts.
type serveClient struct {
	rng     *rand.Rand
	cursors []int64 // next offset per blob
	buf     []byte
	made    int // requests made so far
}

// run drives one burst of nproc closed-loop clients: each makes
// requests until the clients have made n in all.
func (v *serveFam) run(n int) {
	e := v.e
	if v.clients == nil {
		for i := 0; i < e.threads; i++ {
			v.clients = append(v.clients, &serveClient{
				rng:     rand.New(rand.NewSource(e.seed*1000003 + int64(i))),
				cursors: make([]int64, len(serveBlobs)),
				buf:     make([]byte, maxRange),
			})
		}
	}
	met := v.srv.Metrics()
	counters := []*int64{&v.served, &v.inflated, &v.hits, &v.misses, &v.evictions, &v.copyEr}
	sources := []*metrics.Counter{&met.BytesServed, &met.BytesInflated, &met.CacheHits, &met.CacheMisses, &met.CacheEvictions, &met.CopyErrors}
	for i, c := range sources {
		*counters[i] -= c.Value()
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range v.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Client i's share of n, so the shares add up to n.
			c.run(v, n*(i+1)/len(v.clients)-n*i/len(v.clients))
		}()
	}
	wg.Wait()
	v.elapsed += time.Since(t0)
	for i, c := range sources {
		*counters[i] += c.Value()
	}
}

// run makes requests until the client has made n in all.
func (c *serveClient) run(v *serveFam, n int) {
	for c.made < n {
		c.request(v)
	}
}

func (c *serveClient) request(v *serveFam) {
	e := v.e
	size := int64(len(e.c.text))
	b := c.rng.Intn(len(serveBlobs))
	n := 1 + c.rng.Int63n(maxRange)
	seq := c.rng.Float64() < pSeq
	off := c.cursors[b]
	if !seq || off >= size {
		off = c.rng.Int63n(size)
	}
	n = min(n, size-off)
	c.cursors[b] = off + n

	tr := e.opTracer(c.made)
	c.made++
	op := e.opID.Add(1)
	sp := tr.start(op, spanRef{}, "serve", "transport", "GET")
	d, err := v.get(v.client, serveBlobs[b], off, c.buf[:n], op, sp)
	sp.finish()
	if !e.chk.op(err) {
		return
	}
	mode := modeOf(tr)
	v.mu.Lock()
	v.lat[mode].addDur(d)
	v.okCount[mode]++
	if seq {
		v.seqMs.addDur(d)
	} else {
		v.randMs.addDur(d)
	}
	v.mu.Unlock()
}

// get issues one ranged GET and checks its status, length and bytes.
func (v *serveFam) get(client *http.Client, blob string, off int64, body []byte, op int64, sp spanRef) (time.Duration, error) {
	e := v.e
	n := int64(len(body))
	req, err := http.NewRequest(http.MethodGet, v.ts.URL+"/blobs/"+blob, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
	if sp.open {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(sp.s.ID, 10))
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	got, err := io.ReadFull(resp.Body, body)
	extra, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	what := fmt.Sprintf("GET %s bytes=%d+%d", blob, off, n)
	if err == nil {
		err = e.chk.sameStatus(what, resp.StatusCode, http.StatusPartialContent)
	}
	if err == nil && extra > 0 {
		err = fmt.Errorf("%s: %d bytes, want %d", what, int64(got)+extra, n)
	}
	if err == nil {
		err = e.chk.sameBytes(what, body, e.c.text[off:off+n])
	}
	return d, err
}

func (v *serveFam) endToEnd(r *report, mode int) {
	// In a traced run the two modes alternate per request; with closed-
	// loop clients and no think time the rate follows from latency
	// (Little's law), so each mode's rate is clients / mean latency.
	rps := float64(v.okCount[0]+v.okCount[1]) / v.elapsed.Seconds()
	if v.e.tr != nil {
		rps = float64(v.e.threads) / (v.lat[mode].mean() / 1e3)
	}
	r.set("serve_rps", metric{Value: rps, Unit: "1/s", Samples: len(v.lat[mode])})
	r.quantileOf("serve_p50_ms", "ms", v.lat[mode], 0.5)
	r.quantileOf("serve_p90_ms", "ms", v.lat[mode], 0.9)
}

func (v *serveFam) perLayer(r *report) {
	all := append(append(samples(nil), v.lat[0]...), v.lat[1]...)
	r.quantileOf("serve.handler_p50_ms", "ms", v.handlerMs, 0.5)
	r.quantileOf("serve.handler_p99_ms", "ms", v.handlerMs, 0.99)
	r.value("serve.transport_p50_ms", "ms", all.median()-v.handlerMs.median())
	r.quantileOf("serve.seq_p50_ms", "ms", v.seqMs, 0.5)
	r.quantileOf("serve.rand_p50_ms", "ms", v.randMs, 0.5)
	r.value("serve.inflated_per_served", "ratio", float64(v.inflated)/float64(v.served))
	r.value("serve.cache_hit_frac", "ratio", float64(v.hits)/float64(v.hits+v.misses))
	r.value("serve.evictions", "count", float64(v.evictions))
	r.quantileOf("serve.index_build_ms", "ms", v.buildMs, 0.5)
	r.value("serve.copy_errors", "count", float64(v.copyEr))
}
