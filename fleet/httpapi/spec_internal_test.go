package httpapi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"effitest"
	"effitest/fleet"
)

func tinySpec(seed int64) CircuitSpec {
	return CircuitSpec{
		Custom:  &CustomProfile{Name: "cc24", FFs: 24, Gates: 200, Buffers: 3, Paths: 24},
		GenSeed: seed,
	}
}

func TestCircuitCacheSharesCircuit(t *testing.T) {
	cc := newCircuitCache()
	a, err := cc.build(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	// Another request decodes its own *CustomProfile: the key compares the
	// profile by value, not by pointer.
	b, err := cc.build(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two builds of one spec returned different circuits")
	}
	c, err := cc.build(tinySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("a different gen seed hit the cached circuit")
	}
}

// Run under -race: concurrent first builds of one spec all end up on the
// one circuit the cache keeps.
func TestCircuitCacheConcurrent(t *testing.T) {
	cc := newCircuitCache()
	got := make([]*effitest.Circuit, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := cc.build(tinySpec(int64(1 + i%2)))
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}()
	}
	wg.Wait()
	for i := range got {
		want := cc.remember(circuitKeyOf(tinySpec(int64(1+i%2))), nil)
		if got[i] == nil || got[i] != want {
			t.Fatalf("goroutine %d got a circuit the cache does not hold", i)
		}
	}
}

func TestCircuitCacheSkipsErrors(t *testing.T) {
	cc := newCircuitCache()
	bad := []CircuitSpec{
		{Profile: "no-such-profile"},
		{Profile: "s9234", Custom: tinySpec(1).Custom},
		{Netlist: "not a netlist"},
	}
	for _, cs := range bad {
		for i := 0; i < 2; i++ {
			if _, err := cc.build(cs); err == nil {
				t.Fatalf("%+v built", cs)
			}
		}
	}
	if n := cc.order.Len(); n != 0 {
		t.Fatalf("%d failed builds cached", n)
	}
}

func TestCircuitCacheKeysNetlistByHash(t *testing.T) {
	src, err := effitest.Generate(effitest.NewProfile("nl24", 24, 200, 3, 24), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := effitest.WriteNetlist(&buf, src); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	k := circuitKeyOf(CircuitSpec{Netlist: text})
	if k != (circuitKey{netlist: sha256.Sum256([]byte(text))}) {
		t.Fatalf("netlist key %+v, want only the text's SHA-256", k)
	}

	cc := newCircuitCache()
	a, err := cc.build(CircuitSpec{Netlist: text})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.build(CircuitSpec{Netlist: strings.Clone(text)})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("equal netlist texts built different circuits")
	}
}

func TestCircuitCacheBounded(t *testing.T) {
	cc := newCircuitCache()
	first, err := cc.build(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed <= circuitCacheCap+1; seed++ {
		if _, err := cc.build(tinySpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if n := cc.order.Len(); n != circuitCacheCap || len(cc.items) != circuitCacheCap {
		t.Fatalf("cache holds %d/%d entries, want %d", n, len(cc.items), circuitCacheCap)
	}
	again, err := cc.build(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("least recently used circuit was not evicted")
	}
}

// Two submits of one design over the wire share the server's one circuit.
func TestSubmitSharesCachedCircuit(t *testing.T) {
	m, err := fleet.NewManager(fleet.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(m)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		m.Shutdown(context.Background())
		ts.Close()
	})
	body, err := json.Marshal(CampaignRequest{
		Circuit: tinySpec(4),
		Config:  ConfigSpec{Quantile: 0.8413, CalibChips: 100},
		Chips:   ChipSpec{Seed: 9, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var circuits []*effitest.Circuit
	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st CampaignStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d, %v", i, resp.StatusCode, err)
		}
		camp, ok := m.Campaign(st.ID)
		if !ok {
			t.Fatalf("campaign %s unknown", st.ID)
		}
		if _, err := camp.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, camp.Engine().Circuit())
	}
	cached := srv.circuits.remember(circuitKeyOf(tinySpec(4)), nil)
	if cached == nil || circuits[0] != cached || circuits[1] != cached {
		t.Fatal("submits did not run on the server's cached circuit")
	}
	if n := srv.circuits.order.Len(); n != 1 {
		t.Fatalf("circuit cache holds %d entries, want 1", n)
	}
}

// Recovery decodes every journaled campaign of one design onto one circuit.
func TestSpecDecoderSharesCircuit(t *testing.T) {
	payload, err := json.Marshal(CampaignRequest{Circuit: tinySpec(4), Chips: ChipSpec{Seed: 9, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	decode := SpecDecoder(nil)
	a, err := decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if a.Circuit != b.Circuit {
		t.Fatal("two recovered campaigns of one design built two circuits")
	}
	if !bytes.Equal(a.JournalPayload, payload) {
		t.Fatal("decoded spec lost its journal payload")
	}
}
