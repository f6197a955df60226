package core

import (
	"bytes"
	"fmt"
	"math/big"
	"sort"

	"slicer/internal/store"
)

// Shard-tier hooks: a cloud that serves as one shard of a routed deployment
// holds only a slice of the encrypted index (partitioned by label address)
// but the full replicated ADS (primes, witnesses, accumulation value). The
// router resolves index labels with GetEntries, delegates VO generation with
// WitnessForPrime, and moves address ranges between shards with
// ExportRange / ImportEntries / DeleteRange. All methods take the cloud's
// own lock; range moves interleave safely with live searches.

// RangeEntry is one (label, payload) pair of an address-range export.
type RangeEntry struct {
	Label   store.Label
	Payload store.Payload
}

// GetEntries resolves a batch of index labels. found[i] reports whether
// labels[i] is present; payloads[i] is zero when it is not. The router's
// scatter-gather collect phase is built on this single read-only primitive.
func (c *Cloud) GetEntries(labels []store.Label) (payloads []store.Payload, found []bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	payloads = make([]store.Payload, len(labels))
	found = make([]bool, len(labels))
	_ = c.getEntries(labels, payloads, found) // never fails
	return payloads, found
}

// getEntries is Collect's lookup over the cloud's own index. Callers hold
// the lock (read or write).
func (c *Cloud) getEntries(labels []store.Label, payloads []store.Payload, found []bool) error {
	for i, l := range labels {
		payloads[i], found[i] = c.index.Get(l)
	}
	return nil
}

// WitnessForPrime produces the membership witness for an already-derived
// prime representative, exactly as witnessFor would for the token that
// yielded it. The shard router computes the prime from the merged result
// set and delegates the (modexp-heavy) witness generation to one shard.
func (c *Cloud) WitnessForPrime(x *big.Int) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.witnessForPrime(x)
}

// ExportRange returns one deterministic page of the index entries whose
// address (store.Addr) falls in [lo, hi) — hi == 0 meaning 2^64 — with
// labels strictly greater than cursor (nil starts from the beginning),
// sorted by label bytes. next is the cursor for the following page, nil when
// the range is exhausted. limit <= 0 means no bound. Read-only: a source
// shard keeps serving searches while a mover drains it page by page.
func (c *Cloud) ExportRange(lo, hi uint64, cursor []byte, limit int) (entries []RangeEntry, next []byte) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.index.RangeAddr(lo, hi, func(l store.Label, d store.Payload) bool {
		if cursor != nil && bytes.Compare(l[:], cursor) <= 0 {
			return true
		}
		entries = append(entries, RangeEntry{Label: l, Payload: d})
		return true
	})
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].Label[:], entries[j].Label[:]) < 0
	})
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
		last := entries[len(entries)-1].Label
		next = append([]byte(nil), last[:]...)
	}
	return entries, next
}

// ImportEntries installs entries shipped by a range move. It is idempotent
// so a mover can safely retry a page after a crash or timeout: an entry
// already present with the same payload is skipped, while a conflicting
// payload under the same label is a hard error (labels are PRF outputs over
// unique triples — a conflict means the move shipped foreign state).
func (c *Cloud) ImportEntries(entries []RangeEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		if existing, ok := c.index.Get(e.Label); ok {
			if existing == e.Payload {
				continue
			}
			return fmt.Errorf("core: import conflict: label exists with different payload")
		}
		if err := c.index.Put(e.Label, e.Payload); err != nil {
			return fmt.Errorf("core: import entry: %w", err)
		}
	}
	return nil
}

// DeleteRange removes every index entry whose address falls in [lo, hi) —
// hi == 0 meaning 2^64 — and reports how many were removed. The source
// shard runs it once the destination owns the range; idempotent by nature
// (a retry deletes nothing).
func (c *Cloud) DeleteRange(lo, hi uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var doomed []store.Label
	c.index.RangeAddr(lo, hi, func(l store.Label, _ store.Payload) bool {
		doomed = append(doomed, l)
		return true
	})
	for _, l := range doomed {
		c.index.Delete(l)
	}
	return len(doomed)
}
