package httpapi

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"effitest"
	"effitest/fleet"
)

// campaignSpec translates a decoded request into the manager's spec: the
// circuit comes through circuits, the engine options from the config, and
// payload (the request's raw body) becomes the journal payload. Plan
// references are resolved by the caller, whose policy for a missing plan
// differs between submit and recovery.
func campaignSpec(req CampaignRequest, payload []byte, circuits *circuitCache) (fleet.CampaignSpec, error) {
	c, err := circuits.build(req.Circuit)
	if err != nil {
		return fleet.CampaignSpec{}, err
	}
	opts, err := req.Config.Options()
	if err != nil {
		return fleet.CampaignSpec{}, err
	}
	return fleet.CampaignSpec{
		Name:           req.Name,
		Circuit:        c,
		Options:        opts,
		ChipSeed:       req.Chips.Seed,
		ChipCount:      req.Chips.Count,
		ChipFirst:      req.Chips.First,
		Workload:       req.Workload,
		BinEdges:       req.BinEdges,
		Drift:          req.Drift,
		Key:            req.Key,
		PlanID:         req.PlanID,
		JournalPayload: payload,
	}, nil
}

// circuitCacheCap bounds the circuit cache; it matches the engine
// registry's default capacity, so every design with a live engine keeps
// its circuit.
const circuitCacheCap = 16

// circuitKey is the comparable form of a CircuitSpec. A netlist spec is
// keyed by the SHA-256 of its text (zero for non-netlist specs), so the
// cache never holds request bodies.
type circuitKey struct {
	profile   string
	custom    CustomProfile
	hasCustom bool
	netlist   [sha256.Size]byte
	genSeed   int64
}

func circuitKeyOf(cs CircuitSpec) circuitKey {
	k := circuitKey{profile: cs.Profile, genSeed: cs.GenSeed}
	if cs.Custom != nil {
		k.custom, k.hasCustom = *cs.Custom, true
	}
	if cs.Netlist != "" {
		k.netlist = sha256.Sum256([]byte(cs.Netlist))
	}
	return k
}

// circuitCache is a bounded LRU from wire CircuitSpec to built circuit.
// Every submit of one design then shares one immutable *effitest.Circuit:
// it skips Generate (or ParseNetlist), and the fingerprint the registry
// and the journal read is computed once and stored on the circuit. Build
// errors are not cached.
type circuitCache struct {
	mu    sync.Mutex
	items map[circuitKey]*list.Element
	order *list.List // front = most recently used; values are *circuitEntry
}

type circuitEntry struct {
	key circuitKey
	c   *effitest.Circuit
}

func newCircuitCache() *circuitCache {
	return &circuitCache{items: map[circuitKey]*list.Element{}, order: list.New()}
}

// build returns the cached circuit for cs, building it on a miss. Two
// concurrent first builds of one spec both run; the first to finish is
// kept and returned to both.
func (cc *circuitCache) build(cs CircuitSpec) (*effitest.Circuit, error) {
	k := circuitKeyOf(cs)
	if c := cc.remember(k, nil); c != nil {
		return c, nil
	}
	c, err := cs.Build()
	if err != nil {
		return nil, err
	}
	return cc.remember(k, c), nil
}

// remember returns the cached circuit for k and marks it most recently
// used. On a miss it caches c (when non-nil), evicting the least recently
// used entry past the cap, and returns c.
func (cc *circuitCache) remember(k circuitKey, c *effitest.Circuit) *effitest.Circuit {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.items[k]; ok {
		cc.order.MoveToFront(el)
		return el.Value.(*circuitEntry).c
	}
	if c == nil {
		return nil
	}
	cc.items[k] = cc.order.PushFront(&circuitEntry{key: k, c: c})
	if cc.order.Len() > circuitCacheCap {
		el := cc.order.Back()
		cc.order.Remove(el)
		delete(cc.items, el.Value.(*circuitEntry).key)
	}
	return c
}
