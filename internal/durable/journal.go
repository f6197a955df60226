package durable

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"slicer/internal/obs"
)

// JournalOptions configures a server's data directory: where its journal
// lives, when records become durable and when state folds into snapshots.
type JournalOptions struct {
	// FS is the filesystem to persist into (nil: the real one). Tests
	// inject MemFS to crash the server at exact write boundaries.
	FS FS
	// Dir is the data directory holding WAL segments and snapshots.
	Dir string
	// Fsync selects when journaled records become durable (default
	// FsyncAlways: an acknowledged request survives kill -9).
	Fsync Policy
	// FsyncInterval bounds staleness under FsyncInterval.
	FsyncInterval time.Duration
	// SegmentBytes overrides the WAL segment size (default 8 MiB).
	SegmentBytes int64
	// SnapshotEvery folds state into a snapshot after this many journaled
	// records (default 256; <0 disables the record trigger).
	SnapshotEvery int
	// SnapshotBytes also triggers a snapshot once this many WAL bytes
	// accumulate since the last one (default 16 MiB; <0 disables).
	SnapshotBytes int64
	// Registry receives WAL/snapshot/recovery series (may be nil).
	Registry *obs.Registry
	// Logger records snapshot failures and skipped records (may be nil).
	Logger *slog.Logger
}

func (o JournalOptions) fsys() FS {
	if o.FS == nil {
		return OS
	}
	return o.FS
}

// RecoveryStats summarizes what a server rebuilt from its data directory.
type RecoveryStats struct {
	// SnapshotIndex is the WAL index the loaded snapshot covered (0: none).
	SnapshotIndex uint64
	// Replayed is how many WAL records were re-applied on top of it.
	Replayed int
	// Skipped counts records that failed to re-apply (they failed the same
	// way live — journal-then-apply keeps them in the log regardless).
	Skipped int
	// Truncated counts torn/corrupt records discarded from the WAL tail.
	Truncated int
}

// Journal couples a WAL and a snapshotter behind one mutex so that journal
// order is exactly apply order — required because update application is
// last-writer-wins on the accumulation value, so replaying in a different
// order than the live server applied would diverge. A nil *Journal is a
// server without a data directory: Commit just applies.
type Journal struct {
	mu         sync.Mutex
	log        *Log
	closed     bool
	snap       *Snapshotter
	every      int
	everyBytes int64
	sinceRecs  int
	sinceBytes int64
	logger     *slog.Logger
	snapFails  *obs.Counter
}

// OpenJournal recovers a data directory and opens its journal for writes:
// restore loads the newest snapshot's payload (skipped when there is none),
// replay re-applies each WAL record after it in order — a record that fails
// is counted as skipped, since it failed the same way live — and the WAL
// then resumes after the last recovered record.
func OpenJournal(opts JournalOptions, restore, replay func([]byte) error) (*Journal, *RecoveryStats, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("durable: journal needs a data directory")
	}
	rec, err := Recover(opts.fsys(), opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	stats := &RecoveryStats{SnapshotIndex: rec.SnapshotIndex, Truncated: rec.TruncatedRecords}
	if rec.Snapshot != nil {
		if err := restore(rec.Snapshot); err != nil {
			return nil, nil, fmt.Errorf("durable: restore snapshot: %w", err)
		}
	}
	for _, e := range rec.Entries {
		if err := replay(e); err != nil {
			stats.Skipped++
			if opts.Logger != nil {
				opts.Logger.Warn("skipping unreplayable WAL record", "err", err)
			}
			continue
		}
		stats.Replayed++
	}
	log, err := OpenLog(opts.fsys(), opts.Dir, LogOptions{
		SegmentBytes:  opts.SegmentBytes,
		Fsync:         opts.Fsync,
		FsyncInterval: opts.FsyncInterval,
		Start:         rec.NextIndex,
	})
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{
		log:        log,
		snap:       NewSnapshotter(opts.fsys(), opts.Dir, 0),
		every:      orDefault(opts.SnapshotEvery, 256),
		everyBytes: orDefault(opts.SnapshotBytes, 16<<20),
		logger:     opts.Logger,
	}
	if reg := opts.Registry; reg != nil {
		log.SetMetrics(reg)
		j.snap.SetMetrics(reg)
		j.snapFails = reg.Counter("slicer_snapshot_failures_total",
			"Snapshot saves that failed (the WAL keeps covering the state).")
		reg.Counter("slicer_recoveries_total", "Times this process recovered state from its data directory.").Inc()
		reg.Counter("slicer_recovery_replayed_total", "WAL records replayed on top of the loaded snapshot.").
			Add(uint64(stats.Replayed))
		reg.Counter("slicer_recovery_skipped_total", "WAL records that failed to re-apply during replay.").
			Add(uint64(stats.Skipped))
		reg.Counter("slicer_recovery_truncated_total", "Torn or corrupt records discarded from the WAL tail.").
			Add(uint64(stats.Truncated))
	}
	return j, stats, nil
}

func orDefault[T int | int64](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// Commit journals one record, applies it, and returns only after both —
// the WAL discipline: acknowledge after Commit returns. A record whose
// apply fails stays journaled: replay fails it the same deterministic way
// and skips it. state provides the full serialized state when a snapshot
// trigger fires; snapshot failures are non-fatal (the WAL still covers
// everything). On a nil journal Commit only applies.
func (j *Journal) Commit(rec []byte, apply func() error, state func() ([]byte, error)) error {
	if j == nil {
		return apply()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	idx, err := j.log.Append(rec)
	if err != nil {
		return fmt.Errorf("durable: journal append: %w", err)
	}
	if err := apply(); err != nil {
		return err
	}
	j.sinceRecs++
	j.sinceBytes += int64(len(rec))
	recTrigger := j.every > 0 && j.sinceRecs >= j.every
	byteTrigger := j.everyBytes > 0 && j.sinceBytes >= j.everyBytes
	if recTrigger || byteTrigger {
		j.snapshotLocked(idx, state)
	}
	return nil
}

// snapshotLocked folds the current state into a snapshot covering every
// record up to idx, then compacts the WAL prefix it covers. Caller holds
// j.mu, which keeps the marshaled state consistent with idx.
func (j *Journal) snapshotLocked(idx uint64, state func() ([]byte, error)) {
	payload, err := state()
	if err == nil {
		err = j.snap.Save(idx, payload)
	}
	if err != nil {
		j.snapFails.Inc()
		if j.logger != nil {
			j.logger.Warn("snapshot failed; WAL retained", "index", idx, "err", err)
		}
		return
	}
	j.sinceRecs, j.sinceBytes = 0, 0
	if err := j.log.CompactBefore(idx); err != nil && j.logger != nil {
		j.logger.Warn("wal compaction failed", "upTo", idx, "err", err)
	}
}

// Close syncs and closes the WAL. Closing a nil or already closed journal
// is a no-op.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.log.Sync(); err != nil {
		_ = j.log.Close()
		return err
	}
	return j.log.Close()
}
