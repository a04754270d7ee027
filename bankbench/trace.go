package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"
)

// spanName identifies what a span times; every span is recorded by the
// benchmark around a call into the library's public API.
type spanName uint8

const (
	spTx      spanName = iota // Atomically call → return
	spAttempt                 // one callback invocation
	spDebit                   // Account.Debit
	spCredit                  // Account.Credit
	spInc                     // Counter.Inc
	spCommit                  // the callback's successful return → Atomically return
	spBackoff                 // a failed attempt's return → the next attempt
	spRead                    // Snapshot call → return
	spReadOp                  // Counter.ReadAt inside a Snapshot
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"tx", "attempt", "op.Debit", "op.Credit", "op.Inc", "commit", "backoff", "read", "read.op",
}

func (n spanName) isOp() bool { return n == spDebit || n == spCredit || n == spInc }

// A span is one timed interval of one request.  Times are nanoseconds
// since the tracer's epoch; parent indexes the same tracer's spans (-1
// for a request's root).
type span struct {
	req        uint64
	start, end int64
	parent     int32
	name       spanName
	shards     uint8 // commit spans on a cluster: shards the transfer touched
}

// A tracer holds one client's spans in memory until the run ends.  It is
// used by one goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	limit int
}

func newTracer(epoch time.Time, limit int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, limit+128), limit: limit}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span whose end is filled in by close; children recorded
// in between can name it as their parent.
func (t *tracer) open(req uint64, name spanName, parent int32, start int64) int32 {
	t.spans = append(t.spans, span{req: req, start: start, end: start, parent: parent, name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32, end int64) { t.spans[i].end = end }

func (t *tracer) add(s span) { t.spans = append(t.spans, s) }

// full reports that the span budget is spent; the client then ends its
// traced window so memory stays bounded however fast the stack runs.
func (t *tracer) full() bool { return len(t.spans) >= t.limit }

// spanStats summarizes every tracer's spans: duration and self time per
// span name, and commit durations split by the number of shards a
// transfer touched.
type spanStats struct {
	dur, self [numSpanNames]hist
	ops       hist // every op.* span
	commitBy  [3]hist
}

// summarize computes each span's self time — its duration minus the part
// its children cover.  A client issues one call at a time, so a span's
// children never overlap one another and their clipped durations add up.
func summarize(tracers []*tracer) *spanStats {
	st := &spanStats{}
	for _, t := range tracers {
		covered := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent < 0 {
				continue
			}
			p := t.spans[s.parent]
			lo, hi := max(s.start, p.start), min(s.end, p.end)
			if hi > lo {
				covered[s.parent] += hi - lo
			}
		}
		for i, s := range t.spans {
			d := s.end - s.start
			st.dur[s.name].record(d)
			st.self[s.name].record(d - covered[i])
			if s.name.isOp() {
				st.ops.record(d)
			}
			if s.name == spCommit && int(s.shards) < len(st.commitBy) {
				st.commitBy[s.shards].record(d)
			}
		}
	}
	return st
}

// writeSpans writes every span as gzipped tab-separated text, one line
// per span: request id, span id, parent span id (empty for a root), name,
// start and end in nanoseconds since the run's epoch.  Span ids are
// "<client>.<index>".
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "req\tspan\tparent\tname\tstart_ns\tend_ns")
	for c, t := range tracers {
		for i, s := range t.spans {
			parent := ""
			if s.parent >= 0 {
				parent = fmt.Sprintf("%d.%d", c, s.parent)
			}
			fmt.Fprintf(w, "%d\t%d.%d\t%s\t%s\t%d\t%d\n", s.req, c, i, parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
