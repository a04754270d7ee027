package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hybridcc"
)

const (
	numAccounts  = 1024
	initialFunds = 1_000_000
	// checkpointBytes makes every bank-wal run complete several
	// checkpoints: a transfer logs about 80 B, so at the tens of thousands
	// of transfers a second bank-wal commits this checkpoints every
	// second or two.
	checkpointBytes = 4 << 20
)

// A bank is the benchmark's object set — numAccounts funded Accounts and
// the audit Counter — on one of the three public stacks.  Exactly one of
// sys and cl is set.
type bank struct {
	accts  []*hybridcc.Account
	audit  *hybridcc.Counter
	sys    *hybridcc.System  // bank-mem, bank-wal
	cl     *hybridcc.Cluster // bank-tcp
	dir    string            // bank-wal: the data directory
	shards []*shardd         // bank-tcp
	opts   []hybridcc.Option // bank-wal: reused by reopen
	// shardOf holds the cluster shard of each account, and of the audit
	// counter at index numAccounts (bank-tcp only).
	shardOf []int
}

// registrar is what System and Cluster share for creating the bank's
// objects.
type registrar interface {
	NewAccount(name string, opts ...hybridcc.ObjectOption) (*hybridcc.Account, error)
	NewCounter(name string, opts ...hybridcc.ObjectOption) (*hybridcc.Counter, error)
}

func accountName(i int) string { return fmt.Sprintf("acct-%04d", i) }

// register creates the bank's 1025 objects.
func (b *bank) register(r registrar) error {
	b.accts = make([]*hybridcc.Account, numAccounts)
	for i := range b.accts {
		a, err := r.NewAccount(accountName(i))
		if err != nil {
			return err
		}
		b.accts[i] = a
	}
	var err error
	b.audit, err = r.NewCounter("audit")
	return err
}

// env is where a bank's processes and files come from.
type env struct {
	tmp    string // parent of every data directory
	shardd string // hybrid-shardd binary (bank-tcp)
	// recorder, when set, records the client-side history for Verify
	// (the self-test); measured runs leave it nil.
	recorder *hybridcc.Recorder
}

// openBank builds the workload's stack, registers the objects and funds
// every account in one transaction.
func openBank(ctx context.Context, workload string, e env) (b *bank, err error) {
	b = &bank{}
	var opts []hybridcc.Option
	if e.recorder != nil {
		opts = append(opts, hybridcc.WithRecorder(e.recorder))
	}
	defer func() {
		if err != nil {
			b.dumpLogs()
			b.close()
			b = nil
		}
	}()
	switch workload {
	case "bank-mem":
		b.sys = hybridcc.NewSystem(opts...)
		if err := b.register(b.sys); err != nil {
			return b, err
		}
	case "bank-wal":
		if b.dir, err = os.MkdirTemp(e.tmp, "bank-wal-"); err != nil {
			return b, err
		}
		// Fsync is off: on a shared disk its latency moved whole runs by
		// 25-45%, more than any regression bound could absorb.  The log is
		// still appended, checkpointed, truncated and recovered.
		b.opts = append(opts, hybridcc.WithFsync(false), hybridcc.WithCheckpointBytes(checkpointBytes))
		b.sys, err = hybridcc.Open(b.dir, func(s *hybridcc.System) error { return b.register(s) }, b.opts...)
		if err != nil {
			return b, fmt.Errorf("open %s: %w", b.dir, err)
		}
	case "bank-tcp":
		addrs := make([]string, 2)
		for i := range addrs {
			p, err := startShardd(ctx, e, i, len(addrs))
			if err != nil {
				return b, err
			}
			b.shards = append(b.shards, p)
			addrs[i] = p.addr
		}
		b.cl, err = hybridcc.Dial(addrs, func(c *hybridcc.Cluster) error { return b.register(c) }, opts...)
		if err != nil {
			return b, fmt.Errorf("dial %v: %w", addrs, err)
		}
		b.shardOf = make([]int, numAccounts+1)
		for i := range numAccounts {
			b.shardOf[i] = b.cl.ShardFor(accountName(i))
		}
		b.shardOf[numAccounts] = b.cl.ShardFor("audit")
	default:
		return b, fmt.Errorf("unknown workload %q", workload)
	}
	fund, _ := b.bind(func(tx hybridcc.Txn) error {
		for _, a := range b.accts {
			if err := a.Credit(tx, initialFunds); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err := fund(); err != nil {
		return b, fmt.Errorf("fund accounts: %w", err)
	}
	return b, nil
}

// bind returns the stack's Atomically and Snapshot entry points running
// the given bodies.  The closures are built once per client, so the
// measured loop allocates nothing of its own.
func (b *bank) bind(update func(hybridcc.Txn) error, read func(hybridcc.ReadTxn) error) (atomically, snapshot func() error) {
	if b.cl != nil {
		u := func(tx *hybridcc.DTx) error { return update(tx) }
		r := func(x *hybridcc.DReadTx) error { return read(x) }
		return func() error { return b.cl.Atomically(u) }, func() error { return b.cl.Snapshot(r) }
	}
	u := func(tx *hybridcc.Tx) error { return update(tx) }
	r := func(x *hybridcc.ReadTx) error { return read(x) }
	return func() error { return b.sys.Atomically(u) }, func() error { return b.sys.Snapshot(r) }
}

// stats returns the core counters: the System's, or the sum over the
// cluster's shards.
func (b *bank) stats() coreStats {
	if b.cl != nil {
		t := b.cl.Stats().Total
		return coreStats{t.Waits, t.Timeouts, int64(t.WaitTime), t.Wakeups, t.SpuriousWakeups, t.LogFsyncs}
	}
	t := b.sys.Stats()
	return coreStats{t.Waits, t.Timeouts, int64(t.WaitTime), t.Wakeups, t.SpuriousWakeups, t.LogFsyncs}
}

type coreStats struct {
	waits, timeouts, waitNanos, wakeups, spurious, fsyncs int64
}

// A tally counts the update calls a bank has seen since it was funded.
type tally struct{ acked, failed int64 }

// check verifies the bank's committed state against the clients' tally:
// every acknowledged transfer incremented audit exactly once, a failed
// one at most once, and transfers conserve money.  The balance sum is
// read where the committed state lives in this process.
func (b *bank) check(t tally) error {
	var audit int64
	_, snapshot := b.bind(nil, func(r hybridcc.ReadTxn) (err error) {
		audit, err = b.audit.ReadAt(r)
		return err
	})
	if err := snapshot(); err != nil {
		return fmt.Errorf("read audit: %w", err)
	}
	if audit < t.acked || audit > t.acked+t.failed {
		return fmt.Errorf("audit = %d, want between %d acknowledged and %d acknowledged+failed updates",
			audit, t.acked, t.acked+t.failed)
	}
	if b.sys == nil {
		return nil
	}
	var sum int64
	for _, a := range b.accts {
		sum += a.CommittedBalance()
	}
	if want := int64(numAccounts * initialFunds); sum != want {
		return fmt.Errorf("sum of balances = %d, want %d", sum, want)
	}
	return nil
}

// verify checks the recorded history (env.recorder) for hybrid atomicity.
func (b *bank) verify() error {
	if b.cl != nil {
		return b.cl.Verify()
	}
	return b.sys.Verify()
}

// reopen closes a bank-wal system and recovers it from its directory,
// returning the recovery time and the log bytes recovery found.
func (b *bank) reopen() (recovery float64, logBytes int64, err error) {
	if err := b.sys.Close(); err != nil {
		return 0, 0, fmt.Errorf("close: %w", err)
	}
	b.sys = nil
	if logBytes, err = walBytes(b.dir); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	b.sys, err = hybridcc.Open(b.dir, func(s *hybridcc.System) error { return b.register(s) }, b.opts...)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen %s: %w", b.dir, err)
	}
	return time.Since(start).Seconds(), logBytes, nil
}

// close releases the stack: closes the system or cluster, stops and
// reaps each shardd, and removes every data directory.  It is safe to
// call on a partly built bank and more than once.
func (b *bank) close() error {
	var errs []error
	if b.sys != nil {
		errs = append(errs, b.sys.Close())
		b.sys = nil
	}
	if b.cl != nil {
		errs = append(errs, b.cl.Close())
		b.cl = nil
	}
	for _, p := range b.shards {
		errs = append(errs, p.stop())
	}
	if b.dir != "" {
		errs = append(errs, os.RemoveAll(b.dir))
		b.dir = ""
	}
	return errors.Join(errs...)
}

// dumpLogs prints each shardd's log to standard error.
func (b *bank) dumpLogs() {
	for _, p := range b.shards {
		p.dumpLog()
	}
}

// walBytes totals the log segment files in dir.
func walBytes(dir string) (int64, error) {
	return dirBytes(dir, func(name string) bool {
		return strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg")
	})
}

// dirBytes totals the sizes of the regular files under dir whose base
// names match keep (every file when keep is nil).
func dirBytes(dir string, keep func(string) bool) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() || (keep != nil && !keep(d.Name())) {
			return nil
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil // truncated by a checkpoint since the directory was read
		}
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
