package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// smoke is the tiny-scale configuration: a ~7.5 MB corpus, a few ops
// of each kind and a fraction of a second, enough to run every code
// path, in both modes of a traced run.
func smoke(t *testing.T, root, workload string, trace bool) config {
	t.Helper()
	return config{
		workload: workload, seed: 7, seconds: 0.3, trace: trace, reads: 30000, root: root,
		counts: counts{wholeOps: 2, readAts: 40, accesses: 4, colds: 2, requests: 40, rounds: 2},
	}
}

// declared returns the metric names BENCHMARK.json declares for a mode.
func declared(t *testing.T, trace bool) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if got, want := strings.Join(wl, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload untraced and traced at tiny scale and
// checks the result line against the contract: exactly the declared
// metrics, every op correct.
func TestSmoke(t *testing.T) {
	root := t.TempDir()
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			if err := mainErr(smoke(t, root, wl, trace), &out); err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", wl, trace, err)
			}
			if res.Correct == nil || !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%v failed=%v", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for n, m := range res.Metrics {
				got = append(got, n)
				if m.Value == nil || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s lacks a value or unit", wl, trace, n)
				}
			}
			sort.Strings(got)
			if g, w := strings.Join(got, " "), strings.Join(declared(t, trace), " "); g != w {
				t.Errorf("%s trace=%v: metrics\n got %s\nwant %s", wl, trace, g, w)
			}
		}
	}
}

// TestPlantedFailure proves a wrong answer is counted: one corrupted
// byte, or one wrong HTTP status, must mark the run incorrect.
func TestPlantedFailure(t *testing.T) {
	root := t.TempDir()
	for _, plant := range []string{"byte", "status"} {
		cfg := smoke(t, root, "whole-fastq6", false)
		cfg.plantByte = plant == "byte"
		cfg.plantStatus = plant == "status"
		res, _, _, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("planted %s: correct=%v failed=%d, want one failed op", plant, res.Correct, res.Failed)
		}
	}
}

// TestCorpusCacheRebuildsStaleFiles corrupts a cached blob and checks
// that the next load notices the CRC-32 mismatch and rebuilds it.
func TestCorpusCacheRebuildsStaleFiles(t *testing.T) {
	root := t.TempDir()
	c, err := loadCorpus(root, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !c.generated {
		t.Fatal("first load did not generate the corpus")
	}
	if c, err = loadCorpus(root, 500, 3); err != nil || c.generated {
		t.Fatalf("second load: generated=%v err=%v, want a cache hit", c != nil && c.generated, err)
	}
	path := c.dir + "/" + blob1
	gz := append([]byte(nil), c.gz1...)
	gz[len(gz)-8] ^= 1 // the trailer's CRC-32
	if err := os.WriteFile(path, gz, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := loadCorpus(root, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.generated || !bytes.Equal(c2.gz1, c.gz1) {
		t.Fatal("stale cached blob was not rebuilt")
	}
}
