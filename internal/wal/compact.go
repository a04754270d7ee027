package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// OpenLedger opens a decision-ledger log — owner and decision records,
// superseded over time by discharges — and keeps it bounded.  It settles
// a compaction a crash interrupted, opens and summarizes the log, and,
// when more than threshold records are dead (not among the summary's
// live owner and decision records) and they outnumber the live ones,
// rewrites dir to exactly the live records with CompactDir (always
// fsynced) and reopens it with opts.
func OpenLedger(dir string, opts Options, threshold int) (*Log, Summary, error) {
	if err := RecoverCompaction(dir); err != nil {
		return nil, Summary{}, err
	}
	l, recs, err := Open(dir, opts)
	if err != nil {
		return nil, Summary{}, err
	}
	sum := Summarize(recs)
	live := make([]Record, 0, len(sum.Owners)+len(sum.Decisions))
	for _, p := range sum.Owners {
		live = append(live, Record{Kind: KindOwner, Tx: p})
	}
	for tx, ts := range sum.Decisions {
		live = append(live, Record{Kind: KindDecision, Tx: tx, TS: ts})
	}
	if dead := len(recs) - len(live); dead > threshold && dead > len(live) {
		if err := l.Close(); err != nil {
			return nil, Summary{}, err
		}
		if err := CompactDir(dir, live, Options{Sync: true}); err != nil {
			return nil, Summary{}, fmt.Errorf("compaction: %w", err)
		}
		if l, _, err = Open(dir, opts); err != nil {
			return nil, Summary{}, err
		}
	}
	return l, sum, nil
}

// CompactDir rewrites a log directory to exactly recs, crash-safely: the
// records are written and fsynced into a sibling directory dir+".compact",
// then swapped in with two renames (dir → dir+".old", copy → dir).  A crash
// anywhere leaves either the original or the complete copy for
// RecoverCompaction to settle — never a mix.  The caller must have closed
// any Log open on dir first and reopen afterwards.
func CompactDir(dir string, recs []Record, opts Options) error {
	compact, old := dir+".compact", dir+".old"
	if err := os.RemoveAll(compact); err != nil {
		return err
	}
	cl, _, err := Open(compact, opts)
	if err != nil {
		return err
	}
	if len(recs) > 0 {
		if err := cl.AppendBatchSync(recs); err != nil {
			_ = cl.Close()
			return err
		}
	}
	if err := cl.Close(); err != nil {
		return err
	}
	parent := filepath.Dir(dir)
	if err := os.Rename(dir, old); err != nil {
		return err
	}
	if err := syncDir(parent); err != nil {
		return err
	}
	if err := os.Rename(compact, dir); err != nil {
		return err
	}
	// The promoting rename must be durable before the old copy's entries
	// are unlinked, or power loss could surface the unlinks without the
	// rename and leave neither the original nor the complete copy.
	if err := syncDir(parent); err != nil {
		return err
	}
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	return syncDir(parent)
}

// RecoverCompaction settles a CompactDir a crash interrupted, before dir is
// opened.  The swap's invariant: dir+".compact" is complete iff dir is
// absent (the first rename runs only after the copy is fsynced and closed).
func RecoverCompaction(dir string) error {
	compact, old := dir+".compact", dir+".old"
	if _, err := os.Stat(compact); err == nil {
		if _, derr := os.Stat(dir); derr == nil {
			// Crashed before the swap: the original is intact and the copy
			// may be partial — scrap the copy.
			if err := os.RemoveAll(compact); err != nil {
				return err
			}
		} else if os.IsNotExist(derr) {
			// Crashed between the renames: the copy is complete — promote it
			// and make the promotion durable before the superseded ".old"
			// entries are unlinked below.
			if err := os.Rename(compact, dir); err != nil {
				return err
			}
			if err := syncDir(filepath.Dir(dir)); err != nil {
				return err
			}
		} else {
			return derr
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	// A leftover ".old" is always superseded, whichever window crashed.
	return os.RemoveAll(old)
}
