package circuit

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// fpMu guards every circuit's stored fingerprint. The hash itself runs
// outside the lock: two first callers may both compute it, and both get
// the same value.
var fpMu sync.Mutex

// Fingerprint returns a stable content hash of the circuit: the SHA-256 of
// its canonical netlist serialization, which covers everything the flow
// consumes (paths with canonical delay forms, buffer lattices, exclusive
// pairs, the variation model and the timing constants). Two circuits with
// the same fingerprint are interchangeable inputs to Prepare, so the hash
// keys plan artifacts and the on-disk plan cache.
//
// The hash is computed once per circuit and stored on it (circuits are
// immutable once built); later calls return the stored value. Errors are
// not stored.
func Fingerprint(c *Circuit) (string, error) {
	fpMu.Lock()
	fp := c.fp
	fpMu.Unlock()
	if fp != "" {
		return fp, nil
	}
	h := sha256.New()
	if err := WriteNetlist(h, c); err != nil {
		return "", err
	}
	fp = hex.EncodeToString(h.Sum(nil))
	fpMu.Lock()
	c.fp = fp
	fpMu.Unlock()
	return fp, nil
}
