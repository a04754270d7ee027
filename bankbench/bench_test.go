package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc"
)

var (
	sharddOnce sync.Once
	sharddBin  string
	sharddErr  error
)

// testEnv returns an env whose data directories live in the test's
// temporary directory, with hybrid-shardd built once per test binary.
func testEnv(t *testing.T) env {
	t.Helper()
	sharddOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bankbench-shardd")
		if err != nil {
			sharddErr = err
			return
		}
		sharddBin = filepath.Join(dir, "hybrid-shardd")
		out, err := exec.Command("go", "build", "-o", sharddBin, "hybridcc/cmd/hybrid-shardd").CombinedOutput()
		if err != nil {
			sharddErr = err
			t.Logf("%s", out)
		}
	})
	if sharddErr != nil {
		t.Fatalf("build hybrid-shardd: %v", sharddErr)
	}
	return env{tmp: t.TempDir(), shardd: sharddBin}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if sharddBin != "" {
		os.RemoveAll(filepath.Dir(sharddBin))
	}
	os.Exit(code)
}

// runBriefly opens a bank, drives it for an untraced and a traced window
// of d each, and returns the bank (still open) with the tally of its
// updates.  A window is repeated until it saw reads and updates, which a
// short window on a slow stack can miss.
func runBriefly(t *testing.T, workload string, e env, d time.Duration) (*bank, tally) {
	t.Helper()
	b, err := openBank(context.Background(), workload, e)
	if err != nil {
		t.Fatalf("open %s: %v", workload, err)
	}
	t.Cleanup(func() { b.close() })
	var stop atomic.Bool
	var tl tally
	cs := newClients(b, clientsOf[workload], 1)
	run := func(traceLimit int) []*tracer {
		for range 50 {
			w, tracers := runWindow(cs, d, &stop, traceLimit)
			tl.acked += w.updates
			tl.failed += w.updFailed
			if w.updates >= 3 && w.reads >= 3 {
				return tracers
			}
		}
		t.Fatalf("%s: no window of %s saw three reads and three updates", workload, d)
		return nil
	}
	run(0)
	checkSpans(t, run(10_000))
	return b, tl
}

// checkSpans checks the traced window's span tree: every child lies
// within its parent and belongs to the same request, op spans hang off
// attempts, and a span's children never cover more than the span, so
// self times are never negative.
func checkSpans(t *testing.T, tracers []*tracer) {
	t.Helper()
	for _, tr := range tracers {
		covered := make([]int64, len(tr.spans))
		for i, s := range tr.spans {
			if s.end < s.start {
				t.Fatalf("span %d (%s) ends before it starts", i, spanNames[s.name])
			}
			if s.parent < 0 {
				continue
			}
			p := tr.spans[s.parent]
			if s.req != p.req || s.start < p.start || s.end > p.end {
				t.Fatalf("span %d (%s) not within its parent %s", i, spanNames[s.name], spanNames[p.name])
			}
			if s.name.isOp() && p.name != spAttempt {
				t.Fatalf("op span %s has parent %s", spanNames[s.name], spanNames[p.name])
			}
			covered[s.parent] += s.end - s.start
		}
		for i, s := range tr.spans {
			if covered[i] > s.end-s.start {
				t.Fatalf("span %d (%s): children cover %dns of %dns", i, spanNames[s.name], covered[i], s.end-s.start)
			}
		}
	}
	st := summarize(tracers)
	if st.dur[spTx].n == 0 || st.ops.n == 0 || st.dur[spCommit].n == 0 || st.dur[spReadOp].n == 0 {
		t.Errorf("traced window lacks tx, op, commit or read.op spans")
	}
}

// TestWorkloadsVerify runs every workload's body briefly with a Recorder
// attached and requires the recorded history to be hybrid atomic, and the
// post-run checks to pass.
func TestWorkloadsVerify(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			e := testEnv(t)
			e.recorder = hybridcc.NewRecorder()
			// Verify's cost grows steeply with the history, and the
			// in-process stacks commit twenty times faster than bank-tcp.
			d := 20 * time.Millisecond
			if w == "bank-tcp" {
				d = 200 * time.Millisecond
			}
			b, tl := runBriefly(t, w, e, d)
			if err := b.verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if err := b.check(tl); err != nil {
				t.Fatalf("post-run check: %v", err)
			}
			if b.dir != "" {
				if _, logBytes, err := b.reopen(); err != nil || logBytes == 0 {
					t.Fatalf("reopen: %v (log bytes %d)", err, logBytes)
				}
				if err := b.check(tl); err != nil {
					t.Fatalf("post-recovery check: %v", err)
				}
			}
		})
	}
}

// TestChecksRejectCorruption shows that the post-run checks can fail: an
// audit count off by one either way, and money created by a debit without
// its credit, are each reported.
func TestChecksRejectCorruption(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			b, tl := runBriefly(t, w, testEnv(t), 100*time.Millisecond)
			if err := b.check(tl); err != nil {
				t.Fatalf("uncorrupted run fails its check: %v", err)
			}
			if err := b.check(tally{acked: tl.acked + 1, failed: 0}); err == nil || !strings.Contains(err.Error(), "audit") {
				t.Errorf("audit one below the acknowledged count passed: %v", err)
			}
			extra, _ := b.bind(func(tx hybridcc.Txn) error { return b.audit.Inc(tx, 1) }, nil)
			if err := extra(); err != nil {
				t.Fatal(err)
			}
			if err := b.check(tally{acked: tl.acked, failed: 0}); err == nil || !strings.Contains(err.Error(), "audit") {
				t.Errorf("audit one above the acknowledged count passed: %v", err)
			}
			if b.sys == nil {
				return // bank-tcp: balances live in the shard processes
			}
			theft, _ := b.bind(func(tx hybridcc.Txn) error {
				_, err := b.accts[0].Debit(tx, 1)
				return err
			}, nil)
			if err := theft(); err != nil {
				t.Fatal(err)
			}
			if err := b.check(tally{acked: tl.acked + 1, failed: 0}); err == nil || !strings.Contains(err.Error(), "balances") {
				t.Errorf("a debit without its credit passed: %v", err)
			}
		})
	}
}

// TestMappingSharedAndSeeded checks that the rank-to-account mapping is a
// permutation fixed by the seed, and that on a cluster consecutive ranks
// alternate shards starting with the audit counter's.
func TestMappingSharedAndSeeded(t *testing.T) {
	a, b, c := rankToAccount(1, nil), rankToAccount(1, nil), rankToAccount(2, nil)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("mapping is not a function of the seed alone")
	}
	shardOf := make([]int, numAccounts+1)
	for i := range shardOf {
		shardOf[i] = (i * 7 / 3) % 2
	}
	m := rankToAccount(3, shardOf)
	seen := map[int]bool{}
	for _, x := range m {
		seen[x] = true
	}
	if len(m) != numAccounts || len(seen) != numAccounts {
		t.Fatalf("cluster mapping is not a permutation: %d entries, %d distinct", len(m), len(seen))
	}
	for r := range 200 {
		if want := (shardOf[numAccounts] + r) % 2; shardOf[m[r]] != want {
			t.Fatalf("rank %d on shard %d, want %d", r, shardOf[m[r]], want)
		}
	}
}

// TestMeasureReportsEveryMetric runs the driver's measurement on
// bank-mem with a one-second window and tracing on, and checks that it
// reports every per-layer metric, the untraced end-to-end metrics and
// the sample counts.
func TestMeasureReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full set-up and warm-up")
	}
	var stop atomic.Bool
	res, err := measure(context.Background(), config{workload: "bank-mem", seed: 3, seconds: 1, trace: 1,
		env: env{tmp: t.TempDir()}}, &stop)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d checks=%v", res.Correct, res.Attempted, res.Failed, res.checks)
	}
	if got, want := sortedKeys(res.Metrics), metricNames(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, want %v", got, want)
	}
	e2e, _ := res.meta["end_to_end"].(map[string]value)
	if got, want := sortedKeys(e2e), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, want %v", got, want)
	}
	if n, _ := res.meta["tx_samples"].(uint64); n == 0 {
		t.Errorf("tx sample count missing: %v", res.meta["tx_samples"])
	}
	if n, _ := res.meta["read_samples"].(uint64); n == 0 {
		t.Errorf("read sample count missing: %v", res.meta["read_samples"])
	}
	for _, k := range []string{"nproc", "gomaxprocs", "go_version", "git_sha", "seed", "clients", "seconds"} {
		if _, ok := res.meta[k]; !ok {
			t.Errorf("metadata lacks %s", k)
		}
	}
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json at the repository
// root declares exactly the workloads and metrics this driver reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := workloadNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, driver %v", names, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, driver %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, driver %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, driver %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, driver %+v", i, m, d)
		}
	}
}

func workloadNames() []string { return sortedKeys(clientsOf) }

func metricNames(ms []metric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.name)
	}
	sort.Strings(names)
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
