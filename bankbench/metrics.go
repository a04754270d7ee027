package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// A metric is one reported figure.  The tables below are the benchmark's
// contract and agree with BENCHMARK.json (a test compares them).
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: the share by which it may worsen
}

// endToEnd metrics come from the untraced measured window.  ok_ratio is
// 1 - failed_ratio: the gate needs a metric that is never zero.
var endToEnd = []metric{
	{"tx_per_s", "1/s", "higher", 0.25},
	{"tx_p50_us", "us", "lower", 0.25},
	{"tx_p99_us", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_p99_us", "us", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics come from a -trace 1 run: spans from the traced
// window, counters from the untraced window before it.
var perLayer = []metric{
	{"hybridcc.attempts_per_tx", "ratio", "lower", 0},
	{"hybridcc.self_p50_us", "us", "lower", 0},
	{"core.op_p50_us", "us", "lower", 0},
	{"core.op_p99_us", "us", "lower", 0},
	{"core.commit_p50_us", "us", "lower", 0},
	{"core.commit_p99_us", "us", "lower", 0},
	{"core.read_p50_us", "us", "lower", 0},
	{"core.read_p99_us", "us", "lower", 0},
	{"core.waits_per_ktx", "1/ktx", "lower", 0},
	{"core.wait_us_per_tx", "us", "lower", 0},
	{"core.wakeup_useful_ratio", "ratio", "higher", 0},
	{"core.timeouts", "count", "lower", 0},
	{"wal.commit_p50_us", "us", "lower", 0},
	{"wal.commit_p99_us", "us", "lower", 0},
	{"wal.fsyncs_per_commit", "ratio", "lower", 0},
	{"wal.bytes_per_commit", "B", "lower", 0},
	{"wal.checkpoints_per_s", "1/s", "lower", 0},
	{"wal.checkpoint_failures", "count", "lower", 0},
	{"wal.disk_bytes_end", "B", "lower", 0},
	{"wal.recover_ms", "ms", "lower", 0},
	{"wal.recover_log_bytes", "B", "lower", 0},
	{"cluster.fastpath_ratio", "ratio", "higher", 0},
	{"cluster.commit_1shard_p50_us", "us", "lower", 0},
	{"cluster.commit_1shard_p99_us", "us", "lower", 0},
	{"cluster.commit_2shard_p50_us", "us", "lower", 0},
	{"cluster.commit_2shard_p99_us", "us", "lower", 0},
	{"cluster.protocol_aborts", "count", "lower", 0},
	{"netproto.op_p50_us", "us", "lower", 0},
	{"netproto.op_p99_us", "us", "lower", 0},
	{"netproto.read_p50_us", "us", "lower", 0},
	{"netproto.shard_cpu_ms_per_ktx", "ms/ktx", "lower", 0},
	{"runtime.alloc_bytes_per_tx", "B", "lower", 0},
	{"runtime.gc_per_ktx", "1/ktx", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.cpu_ms_per_ktx", "ms/ktx", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
	// Self time of every span but tx, whose self time is
	// hybridcc.self_p50_us.
	{"span.attempt.self_p50_us", "us", "lower", 0},
	{"span.op.Debit.self_p50_us", "us", "lower", 0},
	{"span.op.Credit.self_p50_us", "us", "lower", 0},
	{"span.op.Inc.self_p50_us", "us", "lower", 0},
	{"span.commit.self_p50_us", "us", "lower", 0},
	{"span.backoff.self_p50_us", "us", "lower", 0},
	{"span.read.self_p50_us", "us", "lower", 0},
	{"span.read.op.self_p50_us", "us", "lower", 0},
}

func unitOf(name string) string {
	for _, ms := range [][]metric{endToEnd, perLayer} {
		for _, m := range ms {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("bankbench: no metric named " + name)
}

// notApplicable says why a per-layer metric has no meaning on a workload,
// or returns "" when it has one.  Each span is attributed to the layer
// that dominates it on the workload: the commit span is the core's
// critical section on bank-mem, that plus the log append on bank-wal,
// and the commit protocol on bank-tcp.
func notApplicable(name, workload string) string {
	layer, _, _ := strings.Cut(name, ".")
	switch {
	case layer == "wal" && workload != "bank-wal":
		return workload + " has no write-ahead log"
	case (layer == "cluster" || layer == "netproto") && workload != "bank-tcp":
		return workload + " runs in-process: no cluster, no wire"
	case (strings.HasPrefix(name, "core.op_") || strings.HasPrefix(name, "core.read_")) && workload == "bank-tcp":
		return "every operation is an RPC on bank-tcp; see netproto.*"
	case strings.HasPrefix(name, "core.commit_") && workload == "bank-wal":
		return "the commit span includes the log append on bank-wal; see wal.commit_*"
	case strings.HasPrefix(name, "core.commit_") && workload == "bank-tcp":
		return "the commit span is the commit protocol on bank-tcp; see cluster.commit_*"
	}
	return ""
}

// counters are the public counters read at both ends of the measured
// window.
type counters struct {
	core                     coreStats
	fast, cross, protoAborts int64 // bank-tcp
	ckpts, ckptFails         int64 // bank-wal
	logWritten               int64 // bank-wal: live segment bytes plus bytes truncation reclaimed
	alloc, gcs, pauseNs      uint64
	cpu                      time.Duration
}

func sample(b *bank) counters {
	c := counters{core: b.stats()}
	if b.cl != nil {
		s := b.cl.Stats()
		c.fast, c.cross, c.protoAborts = s.FastPathCommits, s.CrossShardCommits, s.ProtocolAborts
	}
	if b.dir != "" {
		ck := b.sys.CheckpointStats()
		c.ckpts, c.ckptFails = ck.Checkpoints, ck.Failures
		live, _ := walBytes(b.dir)
		c.logWritten = live + ck.BytesReclaimed
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gcs, c.pauseNs = ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	u, t          window // the untraced and the traced window
	before, after counters
	spans         *spanStats
	diskEnd       int64
	recoverS      float64
	recoverLog    int64
	txPerS        float64       // the untraced tx_per_s
	shardCPU      time.Duration // of the reaped shardd processes
	acked         int64         // updates acknowledged while they ran
}

// fill reports every per-layer metric, marking those that do not apply to
// the workload with the reason.
func (l *layerInputs) fill(workload string, res *result) {
	b, a, sp := l.before, l.after, l.spans
	upd := float64(l.u.updates)
	ktx := upd / 1000
	window := l.u.elapsed.Seconds()
	wakeups := a.core.wakeups - b.core.wakeups
	v := map[string]float64{
		"hybridcc.attempts_per_tx":      ratio(float64(l.u.attempts), upd),
		"core.waits_per_ktx":            ratio(float64(a.core.waits-b.core.waits), ktx),
		"core.wait_us_per_tx":           ratio(float64(a.core.waitNanos-b.core.waitNanos)*usPerNs, upd),
		"core.wakeup_useful_ratio":      ratio(float64(wakeups-(a.core.spurious-b.core.spurious)), float64(wakeups)),
		"core.timeouts":                 float64(a.core.timeouts - b.core.timeouts),
		"wal.fsyncs_per_commit":         ratio(float64(a.core.fsyncs-b.core.fsyncs), upd),
		"wal.bytes_per_commit":          ratio(float64(a.logWritten-b.logWritten), upd),
		"wal.checkpoints_per_s":         ratio(float64(a.ckpts-b.ckpts), window),
		"wal.checkpoint_failures":       float64(a.ckptFails - b.ckptFails),
		"wal.disk_bytes_end":            float64(l.diskEnd),
		"wal.recover_ms":                l.recoverS * 1e3,
		"wal.recover_log_bytes":         float64(l.recoverLog),
		"cluster.fastpath_ratio":        ratio(float64(a.fast-b.fast), float64(a.fast-b.fast+a.cross-b.cross)),
		"cluster.protocol_aborts":       float64(a.protoAborts - b.protoAborts),
		"netproto.shard_cpu_ms_per_ktx": ratio(float64(l.shardCPU)/1e6, float64(l.acked)/1000),
		"runtime.alloc_bytes_per_tx":    ratio(float64(a.alloc-b.alloc), upd),
		"runtime.gc_per_ktx":            ratio(float64(a.gcs-b.gcs), ktx),
		"runtime.gc_pause_ms":           float64(a.pauseNs-b.pauseNs) / 1e6,
		"runtime.cpu_ms_per_ktx":        ratio(float64(a.cpu-b.cpu)/1e6, ktx),
		"trace.overhead_ratio":          ratio(float64(l.t.updates)/l.t.elapsed.Seconds(), l.txPerS),
	}
	pct := func(name string, h *hist, p float64) {
		us, ok := h.quantileUs(p)
		v[name] = us
		if !ok && h.n > 0 && notApplicable(name, workload) == "" {
			res.unsupported = append(res.unsupported, name)
		}
	}
	pct("hybridcc.self_p50_us", &sp.self[spTx], 0.5)
	for _, layer := range []string{"core", "netproto"} {
		pct(layer+".op_p50_us", &sp.ops, 0.5)
		pct(layer+".op_p99_us", &sp.ops, 0.99)
		pct(layer+".read_p50_us", &sp.dur[spReadOp], 0.5)
	}
	pct("core.read_p99_us", &sp.dur[spReadOp], 0.99)
	for _, layer := range []string{"core", "wal"} {
		pct(layer+".commit_p50_us", &sp.dur[spCommit], 0.5)
		pct(layer+".commit_p99_us", &sp.dur[spCommit], 0.99)
	}
	for shards := 1; shards <= 2; shards++ {
		pct(fmt.Sprintf("cluster.commit_%dshard_p50_us", shards), &sp.commitBy[shards], 0.5)
		pct(fmt.Sprintf("cluster.commit_%dshard_p99_us", shards), &sp.commitBy[shards], 0.99)
	}
	for n := spAttempt; n < numSpanNames; n++ {
		name := "span." + spanNames[n] + ".self_p50_us"
		pct(name, &sp.self[n], 0.5)
		if sp.self[n].n == 0 {
			res.notApp[name] = "no " + spanNames[n] + " spans in the traced window"
		}
	}
	if wakeups == 0 {
		res.notApp["core.wakeup_useful_ratio"] = "no wakeups in the window"
	}
	for _, m := range perLayer {
		if why := notApplicable(m.name, workload); why != "" {
			res.notApp[m.name] = why
		}
		x, ok := v[m.name]
		if !ok {
			panic("bankbench: per-layer metric " + m.name + " not computed")
		}
		if _, na := res.notApp[m.name]; na {
			x = 0
		}
		res.put(m.name, x)
	}
}
