// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload against the public API in a single process,
// checks every operation against the corpus text, regenerated on every
// run, and prints every metric by name with its unit; the last line of its
// standard output is the result as one JSON object. See README.md.
//
//	bash perfbench/run.sh --workload whole-fastq6 --seed 1 --seconds 50 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// A family is one kind of work: whole-file decodes, seeks into the
// level-1 file, or ranged GETs to the server.
type family int

const (
	famWhole family = iota
	famSeek
	famServe
)

// workloads names each workload's own family. Every workload runs
// every family, so that every metric is reported on every workload:
// each family makes its fixed op counts (counts below), and the
// workload's own family fills the rest of the run. The serve family
// makes only its fixed count.
var workloads = map[string]family{
	"whole-fastq6": famWhole,
	"seek-fastq1":  famSeek,
}

// counts are the ops every run makes, whatever its workload and the
// host's speed. They give each metric the samples it needs (at least
// ten beyond the 99th percentile of indexed reads and of GETs, which
// the detail lines report) and make the random-access quality figures
// repeat exactly from run to run.
type counts struct {
	wholeOps int // whole-file ops, three decodes each
	readAts  int // indexed File.ReadAt
	accesses int // File.RandomAccessAt; ra_clean_frac and ra_resolved_frac cover exactly these
	colds    int // cold ReadAt on a fresh File
	requests int // ranged GETs, over all clients
	rounds   int // the counts are spread evenly over this many rounds
}

var defaultCounts = counts{wholeOps: 20, readAts: 1500, accesses: 32, colds: 20, requests: 1600, rounds: 8}

const (
	defaultReads = 128_000 // ~32 MB of FASTQ text
	// corpusSeed fixes the corpus text; --seed drives the access streams.
	corpusSeed  = 1
	setupReps   = 3 // set-ups per run; setup_s is their median
	copyBufSize = 1 << 20
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	reads    int
	counts   counts
	root     string // checkout root; caches and traces go under root/.bench_build
	// plantByte and plantStatus corrupt one checked answer (self-test).
	plantByte, plantStatus bool
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is the state shared by the families of one run.
type env struct {
	c       *corpus
	seed    int64
	threads int
	counts  counts
	chk     *checker
	tr      *tracer // nil in an untraced run
	opID    atomic.Int64
	buf     []byte // copy buffer of the single-client families
}

// opTracer returns the tracer for the i-th op of a family: in a traced
// run every other op is traced, so the untraced ops in between measure
// the same code without tracing and the difference is the overhead.
func (e *env) opTracer(i int) *tracer {
	if i%2 == 0 {
		return e.tr
	}
	return nil
}

func modeOf(tr *tracer) int {
	if tr != nil {
		return 1
	}
	return 0
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every offset, range, op mix and client stream")
	flag.Float64Var(&cfg.seconds, "seconds", 50, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.reads, cfg.counts, cfg.root = defaultReads, defaultCounts, "."
	if err := mainErr(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mainErr(cfg config, stdout io.Writer) error {
	res, rep, stamp, err := run(cfg)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	line, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	// One line per metric with its sample count and backed percentile,
	// then the result.
	for _, n := range rep.names {
		line, err := json.Marshal(map[string]any{"metric": n, "detail": rep.metrics[n]})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// run executes one workload and returns its result, the full report
// and the stamp.
func run(cfg config) (*result, *report, map[string]any, error) {
	own, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 || cfg.reads <= 0 || cfg.counts.rounds <= 0 {
		return nil, nil, nil, errors.New("--seconds, --reads and the round count must be positive")
	}
	steal0 := cpuSteal()
	out := filepath.Join(cfg.root, ".bench_build")
	c, err := loadCorpus(filepath.Join(out, "corpus"), cfg.reads, corpusSeed)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("corpus: %w", err)
	}
	e := &env{c: c, seed: cfg.seed, threads: runtime.NumCPU(), counts: cfg.counts, chk: &checker{}, buf: make([]byte, copyBufSize)}
	if cfg.trace {
		e.tr = newTracer()
	}
	w := &whole{e: e}
	s := &seek{e: e}
	v := &serveFam{e: e}
	defer s.close()
	defer v.close()
	if err := s.prepare(); err != nil {
		return nil, nil, nil, err
	}

	// Set-up: everything before the first timed op, repeated; the
	// objects of the last repetition are the ones measured.
	var setup samples
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, fn := range []func() error{w.setup, s.setup, v.setup} {
			if err := fn(); err != nil {
				return nil, nil, nil, err
			}
		}
		setup.add(time.Since(t0).Seconds())
	}

	e.chk.plantByte.Store(cfg.plantByte)
	e.chk.plantStatus.Store(cfg.plantStatus)

	// Measure. Each round makes its share of every family's counts,
	// then gives the workload's own family the rest of the round's
	// time, so host noise lands on every family alike. Between families
	// the heap is collected, untimed, so no op pays for another's
	// garbage.
	total := time.Duration(cfg.seconds * float64(time.Second))
	k := cfg.counts
	start := time.Now()
	var spent [3]time.Duration // per family, for the stamp
	for r := 1; r <= k.rounds; r++ {
		upTo := func(n int) int { return n * r / k.rounds }
		deadline := start.Add(total * time.Duration(r) / time.Duration(k.rounds))
		fams := [3]func(fill bool){
			func(fill bool) { w.run(upTo(k.wholeOps), deadline, fill) },
			func(fill bool) { s.run(upTo(k.readAts), upTo(k.accesses), upTo(k.colds), deadline, fill) },
			func(bool) { v.run(upTo(k.requests)) },
		}
		// The counted ops of every family, then the own family's fill.
		for i, f := range []family{famWhole, famSeek, famServe, own} {
			t0 := time.Now()
			fams[f](i == 3)
			runtime.GC()
			spent[f] += time.Since(t0)
		}
	}

	rep := newReport()
	w.endToEnd(rep, 0)
	s.endToEnd(rep, 0)
	s.quality(rep)
	v.endToEnd(rep, 0)
	rep.value("setup_s", "s", setup.median())
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, nil, err
	}
	rep.value("peak_rss_mb", "MiB", rss)
	endToEnd := append([]string(nil), rep.names...)

	if cfg.trace {
		if err := probes(e, rep); err != nil {
			return nil, nil, nil, err
		}
		w.perLayer(rep)
		s.perLayer(rep)
		v.perLayer(rep)
		traced := newReport()
		w.endToEnd(traced, 1)
		s.endToEnd(traced, 1)
		v.endToEnd(traced, 1)
		for _, n := range traced.names {
			rep.value("overhead."+n, traced.metrics[n].Unit, traced.metrics[n].Value-rep.metrics[n].Value)
		}
		selfTimes(e.tr, rep)
		if err := e.tr.writeJSONL(filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, nil, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := rep.check(); err != nil {
		return nil, nil, nil, err
	}

	res := &result{
		Attempted: e.chk.attempted.Load(),
		Failed:    e.chk.failed.Load(),
		Metrics:   map[string]value{},
	}
	res.Correct = res.Failed == 0
	// An untraced run shows the end-to-end metrics, a traced run
	// everything it added after them.
	shown := endToEnd
	if cfg.trace {
		shown = rep.names[len(endToEnd):]
	}
	for _, n := range shown {
		res.Metrics[n] = value{rep.metrics[n].Value, rep.metrics[n].Unit}
	}
	if e.chk.firstErr != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", e.chk.firstErr)
	}
	stamp := stampOf(cfg, e)
	stamp["steal_frac"] = cpuSteal().since(steal0)
	stamp["family_s"] = map[string]float64{"whole": spent[famWhole].Seconds(), "seek": spent[famSeek].Seconds(), "serve": spent[famServe].Seconds()}
	return res, rep, stamp, nil
}

// cpuTimes is the machine-wide jiffy count and its stolen share, from
// the first line of /proc/stat: time the hypervisor gave to other
// guests while this one wanted to run.
type cpuTimes struct{ total, steal float64 }

func cpuSteal() cpuTimes {
	var t cpuTimes
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since returns the stolen share of the jiffies elapsed since t0.
func (t cpuTimes) since(t0 cpuTimes) float64 {
	if t.total <= t0.total {
		return 0
	}
	return (t.steal - t0.steal) / (t.total - t0.total)
}

// selfLayers are the layers whose self time the traced run reports,
// per family: the calls the benchmark spans, and the engine phases
// Decompress reports in its Stats.
var selfLayers = []string{
	"whole.pugz", "whole.core", "whole.stdlib",
	"seek.pugz", "seek.gzindex", "seek.blockfind", "seek.framing",
	"serve.transport", "serve.serve",
}

// selfTimes reports each layer's self time per traced op of its family.
func selfTimes(tr *tracer, rep *report) {
	self, ops := tr.selfTimes()
	for _, k := range selfLayers {
		fam, layer, _ := strings.Cut(k, ".")
		rep.value("self."+k+"_ms", "ms", ms(self[fam][layer])/float64(ops[fam]))
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// stampOf describes the machine, toolchain, corpus and code a result
// was measured with.
func stampOf(cfg config, e *env) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"threads":    e.threads,
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
		"dirty":      modified,
		"counts": map[string]int{
			"whole_ops": cfg.counts.wholeOps, "readats": cfg.counts.readAts, "accesses": cfg.counts.accesses,
			"colds": cfg.counts.colds, "requests": cfg.counts.requests, "rounds": cfg.counts.rounds,
		},
		"corpus_reads":  cfg.reads,
		"corpus_seed":   corpusSeed,
		"compressor":    e.c.compressor,
		"text_bytes":    len(e.c.text),
		"gz6_bytes":     len(e.c.gz6),
		"gz1_bytes":     len(e.c.gz1),
		"levels":        []int{6, 1},
		"corpus_built":  e.c.generated,
		"corpus_load_s": e.c.genTime.Seconds(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
