package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/obs"
)

// Durability integration: a server that is handed a data directory journals
// every state-mutating request into a write-ahead log before acknowledging
// it, periodically folds its full state into an atomic snapshot, and on
// restart recovers by loading the newest snapshot and replaying the WAL
// tail. The cloud journals the owner's init and update RPCs (the search
// path stays read-only and untouched); the chain journals every sealed
// block in the snapshot encoding, so restart replays to the exact state and
// receipt roots through full block validation.

// Cloud WAL record types: one type byte followed by the RPC's raw JSON
// params, so the journal replays through the same decode path the live
// request took.
const (
	cloudRecInit   byte = 1
	cloudRecUpdate byte = 2
	// cloudRecImport / cloudRecDelete journal the two state-mutating halves
	// of a shard rebalance (cloud.import / cloud.deleteRange).
	cloudRecImport byte = 3
	cloudRecDelete byte = 4
)

// host is what the cloud and the chain server share: the RPC server, the
// durable journal and the audit ledger.
type host struct {
	srv     *Server
	started time.Time

	hmu  sync.RWMutex     // guards jour and aud
	jour *durable.Journal // nil until EnableDurability
	aud  *audit.Ledger    // nil until EnableAudit
}

func newHost() *host {
	h := &host{srv: NewServer(), started: time.Now()}
	h.srv.SetTraceStore(obs.NewTraceStore(0))
	return h
}

// Traces exposes the server's trace store (for /debug/traces and tuning).
func (h *host) Traces() *obs.TraceStore { return h.srv.TraceStore() }

// Server exposes the underlying RPC server for transport-level tuning
// (idle timeout, logger, label cap).
func (h *host) Server() *Server { return h.srv }

// Listen binds the server and returns its address.
func (h *host) Listen(addr string) (string, error) { return h.srv.Listen(addr) }

// Close shuts the server down, syncing and closing the journal if
// durability is enabled.
func (h *host) Close() error {
	err := h.srv.Close()
	if jerr := h.journal().Close(); err == nil {
		err = jerr
	}
	return err
}

// EnableAudit journals every security-relevant event the server handles
// into led. Appends are best-effort on the serving path: a failing audit
// disk degrades to a counted, logged loss, never a failed request.
func (h *host) EnableAudit(led *audit.Ledger) {
	h.hmu.Lock()
	h.aud = led
	h.hmu.Unlock()
}

// Audit returns the attached audit ledger (nil when auditing is off).
func (h *host) Audit() *audit.Ledger {
	h.hmu.RLock()
	defer h.hmu.RUnlock()
	return h.aud
}

// journal returns the durable journal (nil without a data directory, where
// Commit only applies).
func (h *host) journal() *durable.Journal {
	h.hmu.RLock()
	defer h.hmu.RUnlock()
	return h.jour
}

// openJournal recovers the data directory through restore and replay, then
// journals from there on.
func (h *host) openJournal(opts durable.JournalOptions, restore, replay func([]byte) error) (*durable.RecoveryStats, error) {
	jour, stats, err := durable.OpenJournal(opts, restore, replay)
	if err != nil {
		return nil, err
	}
	h.hmu.Lock()
	h.jour = jour
	h.hmu.Unlock()
	return stats, nil
}

// EnableDurability gives the cloud server a data directory: it first
// recovers any state already there (newest snapshot + WAL tail), then
// journals every subsequent init/update before acknowledging it. Call
// before Listen; it may not be combined with a prior Restore.
func (cs *CloudServer) EnableDurability(opts durable.JournalOptions) (*durable.RecoveryStats, error) {
	return cs.openJournal(opts, cs.Restore, cs.replayCloudRecord)
}

// replayCloudRecord re-applies one journaled RPC through the live decode
// path.
func (cs *CloudServer) replayCloudRecord(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("wire: empty WAL record")
	}
	switch rec[0] {
	case cloudRecInit:
		var msg CloudInitMsg
		if err := json.Unmarshal(rec[1:], &msg); err != nil {
			return fmt.Errorf("wire: replay init: %w", err)
		}
		st, mode, err := DecodeCloudInit(&msg)
		if err != nil {
			return fmt.Errorf("wire: replay init: %w", err)
		}
		cloud, err := core.NewCloud(st, mode)
		if err != nil {
			return fmt.Errorf("wire: replay init: %w", err)
		}
		return cs.install(cloud)
	case cloudRecUpdate:
		cloud, err := cs.get()
		if err != nil {
			return fmt.Errorf("wire: replay update: %w", err)
		}
		var msg UpdateMsg
		if err := json.Unmarshal(rec[1:], &msg); err != nil {
			return fmt.Errorf("wire: replay update: %w", err)
		}
		out, err := DecodeUpdate(&msg)
		if err != nil {
			return fmt.Errorf("wire: replay update: %w", err)
		}
		return cloud.ApplyUpdate(out)
	case cloudRecImport:
		cloud, err := cs.get()
		if err != nil {
			return fmt.Errorf("wire: replay import: %w", err)
		}
		var msg ImportMsg
		if err := json.Unmarshal(rec[1:], &msg); err != nil {
			return fmt.Errorf("wire: replay import: %w", err)
		}
		entries, err := decodeEntries(msg.Labels, msg.Payloads)
		if err != nil {
			return fmt.Errorf("wire: replay import: %w", err)
		}
		return cloud.ImportEntries(entries)
	case cloudRecDelete:
		cloud, err := cs.get()
		if err != nil {
			return fmt.Errorf("wire: replay delete: %w", err)
		}
		var msg DeleteRangeMsg
		if err := json.Unmarshal(rec[1:], &msg); err != nil {
			return fmt.Errorf("wire: replay delete: %w", err)
		}
		cloud.DeleteRange(msg.Lo, msg.Hi)
		return nil
	default:
		return fmt.Errorf("wire: unknown WAL record type %d", rec[0])
	}
}

// cloudSnapshotState marshals the hosted cloud for a snapshot trigger.
func (cs *CloudServer) cloudSnapshotState() ([]byte, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, err
	}
	return cloud.Marshal()
}

// EnableDurability gives the chain server a data directory. Recovery
// imports the newest snapshot into every validator node through full block
// validation, then replays journaled blocks above the restored height; from
// then on every sealed block is journaled before the step is acknowledged.
// Call before Listen.
func (cs *ChainServer) EnableDurability(opts durable.JournalOptions) (*durable.RecoveryStats, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.openJournal(opts, cs.restoreLocked, cs.replayBlockRecord)
}

// restoreLocked imports a chain snapshot into every node. Caller holds
// cs.mu.
func (cs *ChainServer) restoreLocked(data []byte) error {
	snap, err := chain.UnmarshalSnapshot(data)
	if err != nil {
		return err
	}
	for _, node := range cs.network.Nodes() {
		if err := node.ImportSnapshot(snap); err != nil {
			return err
		}
	}
	return nil
}

// replayBlockRecord re-imports one journaled block into every node through
// full validation. Blocks at or below a node's height (already covered by
// the snapshot) are skipped. Caller holds cs.mu.
func (cs *ChainServer) replayBlockRecord(rec []byte) error {
	block, err := chain.DecodeBlock(rec)
	if err != nil {
		return err
	}
	for _, node := range cs.network.Nodes() {
		if block.Header.Number <= node.Height() {
			continue
		}
		if err := node.ImportBlock(block); err != nil {
			return fmt.Errorf("wire: replay block %d: %w", block.Header.Number, err)
		}
	}
	return nil
}

// chainSnapshotStateLocked exports the full chain for a snapshot trigger.
// Caller holds cs.mu (handleStep does).
func (cs *ChainServer) chainSnapshotStateLocked() ([]byte, error) {
	return cs.network.Leader().ExportSnapshot().Marshal()
}
