// Package durable is the embedded durability engine shared by the Slicer
// servers: a segmented, CRC32C-framed append-only write-ahead log with a
// configurable fsync policy, atomic snapshot rotation (write-to-temp,
// fsync, rename, fsync-dir), log compaction once a snapshot covers a WAL
// prefix, and crash recovery that loads the newest valid snapshot and
// replays the WAL tail, truncating at the first torn or corrupt record
// instead of failing.
//
// Everything goes through an injectable FS so crash behavior is testable
// deterministically: OS is the real filesystem, MemFS models durability
// (unsynced writes are lost on MemFS.Crash) and injects faults
// (fail-after-N-ops, short writes).
//
// Journal ties it together for a server: OpenJournal recovers a data
// directory through the server's restore and replay functions, and Commit
// journals each state change before it is applied and acknowledged. The
// package knows nothing about what it persists; the cloud (RPC records),
// the chain (sealed blocks) and the router (routing tables and the
// trapdoor key) each journal their own records through one Journal.
package durable

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Fsync policies: when an appended WAL record becomes durable.
type Policy int

const (
	// FsyncAlways syncs after every append: an acknowledged write survives
	// any crash. The safe default.
	FsyncAlways Policy = iota
	// FsyncInterval syncs when the configured interval has elapsed since
	// the last sync (checked on append) and on Close. A crash loses at
	// most one interval of acknowledged appends.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page cache (and Close). Fastest;
	// a crash can lose everything since the last snapshot.
	FsyncNever
)

// String renders the policy the way ParsePolicy accepts it.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses the -fsync flag grammar: "always", "never", or a
// duration like "100ms" selecting FsyncInterval with that interval.
func ParsePolicy(s string) (Policy, time.Duration, error) {
	switch strings.TrimSpace(s) {
	case "always", "":
		return FsyncAlways, 0, nil
	case "never":
		return FsyncNever, 0, nil
	}
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("durable: bad fsync policy %q (want always, never, or a positive interval like 100ms)", s)
	}
	return FsyncInterval, d, nil
}

// ErrNoSnapshot reports that a snapshot directory holds no loadable
// snapshot (none written yet, or every candidate is corrupt).
var ErrNoSnapshot = errors.New("durable: no snapshot")

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("durable: log closed")
