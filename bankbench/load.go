package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hybridcc"
)

const (
	zipfS     = 1.1 // key popularity skew
	maxAmount = 100 // transfer amounts are uniform on 1..maxAmount
	readShare = 10  // percent of a client's calls that are snapshot reads
)

// rankToAccount returns the one mapping from zipfian rank to account
// that every client of a run shares, drawn from the seed: which accounts
// are hot depends only on the seed, never on the client count.  On a
// cluster (shardOf set) rank r goes to an account on shard (s + r) mod n,
// s being the audit counter's shard, so the share of transfers that stay
// on one shard is the same for every seed; the seed still picks which of
// that shard's accounts.
func rankToAccount(seed int64, shardOf []int) []int {
	perm := rand.New(rand.NewSource(seed)).Perm(numAccounts)
	if shardOf == nil {
		return perm
	}
	shards := 0
	for _, s := range shardOf {
		shards = max(shards, s+1)
	}
	byShard := make([][]int, shards)
	for _, a := range perm {
		byShard[shardOf[a]] = append(byShard[shardOf[a]], a)
	}
	m := make([]int, 0, numAccounts)
	for r := shardOf[numAccounts]; len(m) < numAccounts; r++ {
		if q := byShard[r%shards]; len(q) > 0 {
			m = append(m, q[0])
			byShard[r%shards] = q[1:]
		}
	}
	return m
}

// A client is one closed-loop caller: it issues its next call only after
// the previous one returned.  Its inputs come from its own stream of the
// run's seed.
type client struct {
	id      int
	b       *bank
	rng     *rand.Rand
	zipf    *rand.Zipf
	mapping []int

	update, read func() error // the stack's bound entry points

	// The current transfer: accounts a and b, the amount, and (traced,
	// bank-tcp) the shards its last attempt touched.
	a, bAcct int
	amt      int64
	touched  uint8

	w     window    // counts and latencies of the current window
	start time.Time // when the current window started

	// Tracing state; tr is nil in untraced windows.
	tr       *tracer
	req      uint64
	txSpan   int32
	lastEnd  int64 // end of the previous attempt of this call, -1 before the first
	seq      uint64
	audit    int64 // the audit value the last read saw
	readSpan int32
}

// counts are the calls and latencies of one stretch of time.
type counts struct {
	updates, updFailed, reads, readFailed int64
	tx, rd                                hist
}

func (c *counts) merge(o *counts) {
	c.updates += o.updates
	c.updFailed += o.updFailed
	c.reads += o.reads
	c.readFailed += o.readFailed
	c.tx.merge(&o.tx)
	c.rd.merge(&o.rd)
}

// A window is what one timed stretch measured, split into equal slices by
// when each call returned, and its totals.  The end-to-end metrics are
// the best slice's (see result.sliced).
type window struct {
	counts   // the slices' sum, filled in by runWindow
	slices   []counts
	attempts int64 // update callback invocations
	sliceLen time.Duration
	elapsed  time.Duration
}

// slicesPerWindow keeps each slice of a 20 s window long enough for its
// read p99 to have ten samples beyond it on bank-tcp.
const slicesPerWindow = 5

func newWindow(d time.Duration) window {
	return window{slices: make([]counts, slicesPerWindow), sliceLen: d / slicesPerWindow}
}

func (w *window) merge(o *window) {
	for i := range w.slices {
		w.slices[i].merge(&o.slices[i])
		w.counts.merge(&o.slices[i])
	}
	w.attempts += o.attempts
	w.elapsed = max(w.elapsed, o.elapsed)
}

// slice returns the slice a call returning at t belongs to; a call
// returning after the last slice ended counts in the last one.
func (w *window) slice(start, t time.Time) *counts {
	return &w.slices[min(int(t.Sub(start)/w.sliceLen), len(w.slices)-1)]
}

func newClients(b *bank, n int, seed int64) []*client {
	mapping := rankToAccount(seed, b.shardOf)
	cs := make([]*client, n)
	for i := range cs {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i) + 1))
		c := &client{id: i, b: b, rng: rng, mapping: mapping,
			zipf: rand.NewZipf(rng, zipfS, 1, numAccounts-1)}
		c.update, c.read = b.bind(c.transfer, c.readAudit)
		cs[i] = c
	}
	return cs
}

// runWindow runs every client until d has passed or stop is set, then
// returns their merged window.  With traceLimit > 0 each client records
// spans, up to traceLimit of them; tracers are returned in client order.
func runWindow(cs []*client, d time.Duration, stop *atomic.Bool, traceLimit int) (window, []*tracer) {
	var wg sync.WaitGroup
	start := time.Now()
	var tracers []*tracer
	for _, c := range cs {
		c.w = newWindow(d)
		c.start = start
		c.tr = nil
		if traceLimit > 0 {
			c.tr = newTracer(start, traceLimit)
			tracers = append(tracers, c.tr)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(d, stop)
			c.w.elapsed = time.Since(start)
		}()
	}
	wg.Wait()
	w := newWindow(d)
	for _, c := range cs {
		w.merge(&c.w)
	}
	return w, tracers
}

func (c *client) loop(d time.Duration, stop *atomic.Bool) {
	for !stop.Load() && (c.tr == nil || !c.tr.full()) {
		c.seq++
		c.req = uint64(c.id)<<40 | c.seq
		if c.rng.Intn(100) < readShare {
			c.oneRead()
		} else {
			c.a = c.mapping[c.zipf.Uint64()]
			c.bAcct = c.a
			for c.bAcct == c.a {
				c.bAcct = c.mapping[c.zipf.Uint64()]
			}
			c.amt = 1 + c.rng.Int63n(maxAmount)
			c.oneTransfer()
		}
		if time.Since(c.start) >= d {
			return
		}
	}
}

func (c *client) oneTransfer() {
	if c.tr != nil {
		c.txSpan = c.tr.open(c.req, spTx, -1, c.tr.now())
		c.lastEnd = -1
	}
	start := time.Now()
	err := c.update()
	end := time.Now()
	lat := end.Sub(start)
	sl := c.w.slice(c.start, end)
	if c.tr != nil {
		end := c.tr.now()
		if err == nil {
			c.tr.add(span{req: c.req, start: c.lastEnd, end: end, parent: c.txSpan, name: spCommit, shards: c.touched})
		}
		c.tr.close(c.txSpan, end)
	}
	if err != nil {
		sl.updFailed++
		return
	}
	sl.updates++
	sl.tx.record(int64(lat))
}

func (c *client) oneRead() {
	if c.tr != nil {
		c.readSpan = c.tr.open(c.req, spRead, -1, c.tr.now())
	}
	start := time.Now()
	err := c.read()
	end := time.Now()
	lat := end.Sub(start)
	sl := c.w.slice(c.start, end)
	if c.tr != nil {
		c.tr.close(c.readSpan, c.tr.now())
	}
	if err != nil {
		sl.readFailed++
		return
	}
	sl.reads++
	sl.rd.record(int64(lat))
}

// transfer is the update body: debit a, credit b if the debit went
// through, and count the transfer in audit.
func (c *client) transfer(tx hybridcc.Txn) error {
	c.w.attempts++
	if c.tr == nil {
		ok, err := c.b.accts[c.a].Debit(tx, c.amt)
		if err != nil {
			return err
		}
		if ok {
			if err := c.b.accts[c.bAcct].Credit(tx, c.amt); err != nil {
				return err
			}
		}
		return c.b.audit.Inc(tx, 1)
	}
	return c.tracedTransfer(tx)
}

// tracedTransfer is transfer with an attempt span around the body, an op
// span around each call, and a backoff span covering the gap since the
// previous attempt of the same call.
func (c *client) tracedTransfer(tx hybridcc.Txn) error {
	t := c.tr
	now := t.now()
	if c.lastEnd >= 0 {
		t.add(span{req: c.req, start: c.lastEnd, end: now, parent: c.txSpan, name: spBackoff})
	}
	att := t.open(c.req, spAttempt, c.txSpan, now)
	err := c.tracedOps(tx, att)
	c.lastEnd = t.now()
	t.close(att, c.lastEnd)
	return err
}

func (c *client) tracedOps(tx hybridcc.Txn, att int32) error {
	t := c.tr
	op := func(name spanName, start int64) {
		t.add(span{req: c.req, start: start, end: t.now(), parent: att, name: name})
	}
	c.touched = 0
	var seen uint64
	touch := func(i int) {
		if c.b.shardOf == nil {
			return
		}
		if bit := uint64(1) << c.b.shardOf[i]; seen&bit == 0 {
			seen |= bit
			c.touched++
		}
	}
	s := t.now()
	ok, err := c.b.accts[c.a].Debit(tx, c.amt)
	op(spDebit, s)
	touch(c.a)
	if err != nil {
		return err
	}
	if ok {
		s = t.now()
		err = c.b.accts[c.bAcct].Credit(tx, c.amt)
		op(spCredit, s)
		touch(c.bAcct)
		if err != nil {
			return err
		}
	}
	s = t.now()
	err = c.b.audit.Inc(tx, 1)
	op(spInc, s)
	touch(numAccounts)
	return err
}

// readAudit is the read body: one ReadAt of the audit counter.
func (c *client) readAudit(r hybridcc.ReadTxn) (err error) {
	if c.tr == nil {
		c.audit, err = c.b.audit.ReadAt(r)
		return err
	}
	s := c.tr.now()
	c.audit, err = c.b.audit.ReadAt(r)
	c.tr.add(span{req: c.req, start: s, end: c.tr.now(), parent: c.readSpan, name: spReadOp})
	return err
}
