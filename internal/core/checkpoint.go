package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridcc/internal/spec"
	"hybridcc/internal/wal"
)

// checkpointState is the System's checkpointer: the background trigger
// loop's lifecycle and the counters CheckpointStats snapshots.
type checkpointState struct {
	// mu serializes checkpoint attempts; stop/wg run the background loop.
	mu   sync.Mutex
	stop chan struct{}
	wg   sync.WaitGroup

	checkpoints     atomic.Int64
	failures        atomic.Int64
	lastCutTS       atomic.Int64
	lastUnixNano    atomic.Int64
	bytesBase       atomic.Int64
	bytesReclaimed  atomic.Int64
	segmentsRemoved atomic.Int64
}

// CheckpointStats is a snapshot of the checkpointer's counters.
type CheckpointStats struct {
	// Checkpoints counts published checkpoints; Failures counts attempts
	// that did not publish (or published but failed to truncate).  A
	// failure never harms the log — the engine degrades to log-only
	// operation until an attempt succeeds.
	Checkpoints int64
	Failures    int64
	// LastCutTS is the newest published checkpoint's cut timestamp and
	// LastAge its age (zero when none was published this process).
	LastCutTS int64
	LastAge   time.Duration
	// BytesSince is the record bytes appended since the last published
	// checkpoint — the bytes-trigger's measure.  BytesReclaimed and
	// SegmentsRemoved total what truncation gave back to the filesystem.
	BytesSince      int64
	BytesReclaimed  int64
	SegmentsRemoved int64
}

// CheckpointStats returns the checkpointer's counters (zero without
// durability).
func (s *System) CheckpointStats() CheckpointStats {
	st := CheckpointStats{
		Checkpoints:     s.ckpt.checkpoints.Load(),
		Failures:        s.ckpt.failures.Load(),
		LastCutTS:       s.ckpt.lastCutTS.Load(),
		BytesReclaimed:  s.ckpt.bytesReclaimed.Load(),
		SegmentsRemoved: s.ckpt.segmentsRemoved.Load(),
	}
	if t := s.ckpt.lastUnixNano.Load(); t != 0 {
		st.LastAge = time.Since(time.Unix(0, t))
	}
	if s.log != nil {
		st.BytesSince = s.log.Stats().Bytes - s.ckpt.bytesBase.Load()
	}
	return st
}

// Checkpoint publishes a durable checkpoint of the committed state and
// truncates the log segments it covers.  It overlaps normal traffic: after
// a brief per-object fold (one mutex acquisition each, never held across
// objects), the per-object images come from the lock-free committed-tail
// snapshots, so no transaction blocks.  Any failure — encoding,
// disk full, a crash injected by the failpoint — abandons only the attempt;
// the write-ahead log itself is untouched and the system keeps running
// log-only.  Requires durability and a finished recovery.
func (s *System) Checkpoint() error {
	if s.log == nil {
		return fmt.Errorf("hybridcc: Checkpoint without durability")
	}
	if !s.recoveryDone.Load() {
		return fmt.Errorf("hybridcc: Checkpoint before recovery finished")
	}
	s.ckpt.mu.Lock()
	defer s.ckpt.mu.Unlock()
	err := s.checkpointLocked()
	if err != nil {
		s.ckpt.failures.Add(1)
	}
	return err
}

// checkpointLocked takes one checkpoint.  The cut protocol:
//
//  1. Rotate the log and capture the returned live segment index:
//     everything a checkpoint may cover is sealed below it, and step 5
//     passes it to truncation as the bound — a segment sealed later (by
//     appends racing the checkpoint) is never considered.
//  2. Snapshot every object's committed tail (lock-free loads of the
//     published snapshots — never the lock manager).
//  3. Flush the append buffer and read the directory.  Every record a
//     snapshot's entries came from was appended before the commit merged
//     (the append-before-merge rule), hence before the snapshot load,
//     hence drained by the flush — so the directory read observes it.
//     Records still arriving concurrently are simply not in any snapshot
//     and stay uncovered.
//  4. Build per-object images at each object's fold frontier: a
//     DurableState encoding when the spec supports it, otherwise the
//     committed-operations fallback assembled from the previous checkpoint
//     plus the surviving log (complete, because truncation only ever
//     removed records the previous checkpoint covered).
//  5. Publish with the two-rename protocol, then unlink covered segments.
func (s *System) checkpointLocked() error {
	dir := s.log.Dir()
	prev, err := wal.LoadCheckpoint(dir)
	if err != nil {
		return err
	}
	// The live segment index at the cut bounds truncation below: segments
	// sealed by concurrent appends after this point may hold prepared
	// records of branches the Pending set computed in step 3 never saw.
	live, err := s.log.Rotate()
	if err != nil {
		return err
	}
	objs := s.objectsSnapshot(nil)
	sort.Slice(objs, func(i, j int) bool { return objs[i].name < objs[j].name })
	snaps := make([]*tailSnapshot, len(objs))
	for i, o := range objs {
		o.fold() // advance the frontier: recovery and quiescence leave it stale
		snaps[i] = o.tailSnap.Load()
	}
	if err := s.log.Flush(); err != nil {
		return err
	}
	bytesNow := s.log.Stats().Bytes
	recs, _, err := wal.ReadDir(dir)
	if err != nil {
		return err
	}

	var prevObjs map[string]*wal.CheckpointObject
	var prevPending []wal.Record
	if prev != nil {
		prevObjs = make(map[string]*wal.CheckpointObject, len(prev.Objects))
		for i := range prev.Objects {
			prevObjs[prev.Objects[i].Name] = &prev.Objects[i]
		}
		prevPending = prev.Pending
	}
	// Participant stamps for unforgotten entries: the committed tail does
	// not carry them, so look each transaction up in the surviving log and
	// the previous checkpoint.  A missing stamp degrades to zero
	// ("unstamped"), which constrains nothing — it can never cause a false
	// missing-leg refusal.
	parts := make(map[string]int)
	stamp := func(tx string, n int) {
		if n > parts[tx] {
			parts[tx] = n
		}
	}
	if prev != nil {
		for _, o := range prev.Objects {
			for _, e := range o.ImageOps {
				stamp(e.Tx, e.Participants)
			}
			for _, e := range o.Unforgotten {
				stamp(e.Tx, e.Participants)
			}
		}
	}
	for _, r := range recs {
		if r.Kind == wal.KindCommit {
			stamp(r.Tx, r.Participants)
		}
	}

	combined := make([]wal.Record, 0, len(prevPending)+len(recs))
	combined = append(combined, prevPending...)
	combined = append(combined, recs...)
	ck := &wal.Checkpoint{MaxSeq: s.txSeq.Load(), Pending: wal.Summarize(combined).Pending}
	if prev != nil {
		ck.CutTS = prev.CutTS
		if prev.MaxSeq > ck.MaxSeq {
			ck.MaxSeq = prev.MaxSeq
		}
	}
	for i, o := range objs {
		snap := snaps[i]
		co := wal.CheckpointObject{
			Name:   string(o.name),
			Folded: int64(snap.folded),
			Clock:  int64(snap.clock),
		}
		if int64(snap.clock) > ck.CutTS {
			ck.CutTS = int64(snap.clock)
		}
		if ds, ok := o.sp.(spec.DurableSpec); ok {
			blob, err := ds.EncodeState(snap.version)
			if err != nil {
				return fmt.Errorf("hybridcc: checkpoint: encoding state of %s: %w", o.name, err)
			}
			co.HasState = true
			co.State = blob
		} else {
			img, err := fallbackImage(string(o.name), int64(snap.folded), prevObjs[string(o.name)], recs)
			if err != nil {
				return err
			}
			co.ImageOps = img
		}
		for _, e := range snap.unforgotten {
			co.Unforgotten = append(co.Unforgotten, wal.CheckpointEntry{
				Tx:           string(e.tx),
				TS:           int64(e.ts),
				Participants: parts[string(e.tx)],
				Ops:          walOps(e.ops),
			})
		}
		ck.Objects = append(ck.Objects, co)
	}

	if _, err := wal.WriteCheckpoint(dir, ck); err != nil {
		return err
	}
	reclaimed, removed, terr := s.log.TruncateCovered(ck, live)
	s.ckpt.checkpoints.Add(1)
	s.ckpt.lastCutTS.Store(ck.CutTS)
	s.ckpt.lastUnixNano.Store(time.Now().UnixNano())
	s.ckpt.bytesBase.Store(bytesNow)
	s.ckpt.bytesReclaimed.Add(reclaimed)
	s.ckpt.segmentsRemoved.Add(int64(removed))
	if terr != nil {
		return fmt.Errorf("hybridcc: checkpoint published but truncation failed: %w", terr)
	}
	return nil
}

// fallbackImage assembles the committed-operations image of an object whose
// spec has no durable-state support: every committed leg below the fold
// frontier, deduplicated by transaction and sorted by timestamp.  The union
// of the previous checkpoint's image and the surviving log is complete —
// truncation only ever unlinks segments the previous checkpoint covered, so
// a folded leg absent from the log is in the previous image by induction.
func fallbackImage(name string, folded int64, prevObj *wal.CheckpointObject, recs []wal.Record) ([]wal.CheckpointEntry, error) {
	seen := make(map[string]bool)
	var img []wal.CheckpointEntry
	add := func(e wal.CheckpointEntry) {
		if e.TS < folded && !seen[e.Tx] {
			seen[e.Tx] = true
			img = append(img, e)
		}
	}
	if prevObj != nil {
		if prevObj.HasState {
			return nil, fmt.Errorf("hybridcc: checkpoint: previous checkpoint holds a state image for %s but its specification no longer supports durable state", name)
		}
		for _, e := range prevObj.ImageOps {
			add(e)
		}
		for _, e := range prevObj.Unforgotten {
			add(e)
		}
	}
	for _, r := range recs {
		if r.Kind != wal.KindCommit {
			continue
		}
		for _, oo := range r.Objs {
			if oo.Obj == name {
				add(wal.CheckpointEntry{Tx: r.Tx, TS: r.TS, Participants: r.Participants, Ops: oo.Ops})
			}
		}
	}
	sort.SliceStable(img, func(i, j int) bool { return img[i].TS < img[j].TS })
	return img, nil
}

// walOps converts spec operations to their log representation.
func walOps(ops []spec.Op) []wal.Op {
	out := make([]wal.Op, len(ops))
	for i, op := range ops {
		out[i] = wal.Op{Name: op.Name, Arg: op.Arg, Res: op.Res}
	}
	return out
}

// specOps converts log operations back to spec operations.
func specOps(ops []wal.Op) []spec.Op {
	out := make([]spec.Op, len(ops))
	for i, op := range ops {
		out[i] = spec.Op{Name: op.Name, Arg: op.Arg, Res: op.Res}
	}
	return out
}

// MarkRecoveryDone flips the recovery-done flag and, on a durable System
// with a checkpoint trigger configured, starts the background checkpointer.
// FinishRecovery calls it; a cluster calls it per shard once its composed
// recovery completes.
func (s *System) MarkRecoveryDone() {
	if s.recoveryDone.Swap(true) {
		return
	}
	d := s.opts.Durability
	if d == nil || s.log == nil || (d.CheckpointBytes <= 0 && d.CheckpointInterval <= 0) {
		return
	}
	// Bytes already in the log at startup are covered by recovery itself;
	// the bytes trigger measures appends from here.
	s.ckpt.bytesBase.Store(s.log.Stats().Bytes)
	stop := make(chan struct{})
	s.ckpt.mu.Lock()
	s.ckpt.stop = stop
	s.ckpt.mu.Unlock()
	s.ckpt.wg.Add(1)
	go s.checkpointLoop(stop, d.CheckpointBytes, d.CheckpointInterval)
}

// stopCheckpointer stops the background loop and waits it out; Close calls
// it before closing the log so no checkpoint attempt races the shutdown.
func (s *System) stopCheckpointer() {
	s.ckpt.mu.Lock()
	stop := s.ckpt.stop
	s.ckpt.stop = nil
	s.ckpt.mu.Unlock()
	if stop != nil {
		close(stop)
		s.ckpt.wg.Wait()
	}
}

// checkpointLoop polls the two triggers — bytes appended since the last
// checkpoint and checkpoint age — and takes a checkpoint when either is
// due.  A failed attempt is retried after a backoff (the engine runs
// log-only meanwhile); a closed or poisoned log ends the loop.
func (s *System) checkpointLoop(stop chan struct{}, bytes int64, interval time.Duration) {
	defer s.ckpt.wg.Done()
	poll := interval
	if bytes > 0 {
		if p := 25 * time.Millisecond; poll <= 0 || p < poll {
			poll = p
		}
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		due := bytes > 0 && s.log.Stats().Bytes-s.ckpt.bytesBase.Load() >= bytes
		if !due && interval > 0 {
			last := s.ckpt.lastUnixNano.Load()
			due = last == 0 || time.Since(time.Unix(0, last)) >= interval
		}
		if !due {
			continue
		}
		if err := s.Checkpoint(); err != nil {
			if errors.Is(err, wal.ErrClosed) {
				return
			}
			backoff := 250 * time.Millisecond
			if poll > backoff {
				backoff = poll
			}
			select {
			case <-stop:
				return
			case <-time.After(backoff):
			}
		}
	}
}
