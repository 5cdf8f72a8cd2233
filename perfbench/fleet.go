package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"effitest"
	"effitest/fleet"
	"effitest/fleet/coord"
	"effitest/fleet/httpapi"
	"effitest/fleet/journal"
)

const (
	fleetNodes   = 2           // loopback daemons
	fleetClients = 2           // closed-loop clients
	authToken    = "perfbench" // daemons run with auth on
)

// fleetCircuit is the fleet workload's circuit: the profile form, as
// effitest-coord submits it by default.
var fleetCircuit = httpapi.CircuitSpec{Profile: "s9234", GenSeed: genSeed}

// routeTimer wraps a daemon's handler: it counts every request and its
// non-2xx answers and, while on, times each request by route.
type routeTimer struct {
	next     http.Handler
	on       *atomic.Bool
	requests atomic.Int64
	non2xx   atomic.Int64

	mu  sync.Mutex
	lat map[string][]time.Duration
}

// statusWriter records the response code and passes Flush through, so the
// daemon's NDJSON streams keep flushing per line.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// route names the API route a request hits.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/campaigns":
		return "submit"
	case strings.HasSuffix(p, "/results"):
		return "results"
	case p == "/stats":
		return "stats"
	case p == "/healthz":
		return "health"
	case strings.HasPrefix(p, "/v1/campaigns/"):
		return "status"
	}
	return "other"
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t := time.Now()
	rt.next.ServeHTTP(sw, r)
	d := time.Since(t)
	rt.requests.Add(1)
	if sw.code < 200 || sw.code > 299 {
		rt.non2xx.Add(1)
	}
	if rt.on.Load() {
		rt.mu.Lock()
		rt.lat[route(r)] = append(rt.lat[route(r)], d)
		rt.mu.Unlock()
	}
}

// daemon is one in-process effitestd: journal, campaign manager and HTTP
// surface on a loopback listener.
type daemon struct {
	j      *journal.Journal
	m      *fleet.Manager
	rt     *routeTimer
	srv    *http.Server
	url    string
	served chan error
}

func bootDaemon(dir string, obs effitest.Observer, timing *atomic.Bool) (*daemon, error) {
	j, err := journal.Open(dir, journal.WithoutSync())
	if err != nil {
		return nil, err
	}
	opts := []fleet.ManagerOption{fleet.WithWorkers(1), fleet.WithJournal(j)}
	if obs != nil {
		opts = append(opts, fleet.WithManagerObserver(obs))
	}
	m, err := fleet.NewManager(opts...)
	if err != nil {
		j.Close()
		return nil, err
	}
	d := &daemon{j: j, m: m, served: make(chan error, 1)}
	if _, err := m.Recover(httpapi.SpecDecoder(m.Plans())); err != nil {
		d.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.rt = &routeTimer{next: httpapi.New(m, httpapi.WithAuthToken(authToken)), on: timing, lat: map[string][]time.Duration{}}
	d.srv = &http.Server{Handler: d.rt}
	d.url = "http://" + ln.Addr().String()
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// close stops the server, drains the manager and closes the journal,
// returning once the serving goroutine has exited.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if d.srv != nil {
		errs = append(errs, d.srv.Shutdown(ctx))
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, d.m.Shutdown(ctx), d.j.Close())
	return errors.Join(errs...)
}

// rig is the fleet under test: the daemons and one coordinator over them.
type rig struct {
	daemons []*daemon
	tr      *http.Transport
	co      *coord.Coordinator
	closed  bool
}

func bootRig(dir string, l *ledger, timing *atomic.Bool) (*rig, error) {
	r := &rig{tr: &http.Transport{MaxIdleConnsPerHost: 16}}
	urls := make([]string, 0, fleetNodes)
	for i := range fleetNodes {
		var obs effitest.Observer
		if l != nil {
			obs = l.observer(i + 1)
		}
		d, err := bootDaemon(filepath.Join(dir, fmt.Sprintf("node-%d", i)), obs, timing)
		if err != nil {
			r.close()
			return nil, err
		}
		r.daemons = append(r.daemons, d)
		urls = append(urls, d.url)
	}
	co, err := coord.New(urls, coord.WithAuthToken(authToken), coord.WithHTTPClient(&http.Client{Transport: r.tr}))
	if err != nil {
		r.close()
		return nil, err
	}
	r.co = co
	return r, nil
}

// close shuts the fleet down; closing again is a no-op.
func (r *rig) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var errs []error
	for _, d := range r.daemons {
		errs = append(errs, d.close())
	}
	r.tr.CloseIdleConnections()
	return errors.Join(errs...)
}

// fleetRun is one run of the fleet workload: the booted fleet, the
// reference digests every merged stream is checked against, and the
// campaign counter that names campaigns and picks their populations.
type fleetRun struct {
	p      params
	fl     *rig
	want   []digest
	l      *ledger      // the daemons' observer sink; nil when untraced
	timing *atomic.Bool // turns the daemons' route timers on
	next   atomic.Int64
}

// campaignResult is one finished campaign: its chips, the chips that
// failed the output check (1 for a failed campaign), and the time Start
// took and the time Results and Wait took.
type campaignResult struct {
	name        string
	chips, bad  int
	start, wait time.Duration
	err         error
}

// campaign runs the next coordinated campaign, consumes its merged result
// stream and checks it against the population's reference digests.
func (fr *fleetRun) campaign(ctx context.Context) campaignResult {
	k := int(fr.next.Add(1) - 1)
	lot, pop := fr.p.sz.fleetLot, k%fr.p.sz.fleetPops
	cr := campaignResult{name: fmt.Sprintf("c%d", k), bad: 1}
	t0 := time.Now()
	run, err := fr.fl.co.Start(ctx, coord.Spec{
		Name:    cr.name,
		Circuit: fleetCircuit,
		Chips:   httpapi.ChipSpec{Seed: fr.p.seed, Count: lot, First: pop * lot},
	})
	if err != nil {
		cr.err = err
		return cr
	}
	t1 := time.Now()
	got := make([]httpapi.ChipResult, 0, lot)
	for res, err := range run.Results(ctx) {
		if err != nil {
			cr.err = err
			return cr
		}
		got = append(got, res)
	}
	if _, err := run.Wait(ctx); err != nil {
		cr.err = err
		return cr
	}
	cr.start, cr.wait = t1.Sub(t0), time.Since(t1)
	d := make([]digest, len(got))
	for i, res := range got {
		d[i] = digestWire(res)
	}
	cr.chips = len(got)
	cr.bad = mismatches(fr.want[pop*lot:(pop+1)*lot], d)
	return cr
}

// window is one measured stretch of the closed loop: campaign latencies,
// wall and normalised (calib.go), and the clients' calibrations.
type window struct {
	wall                          time.Duration
	lat, norm, starts, waits, cal []time.Duration
	chips, campaigns, bad         int
	stretches                     []stretch
}

// stretch is a campaign's stretch of the window, its chips, and the factor
// that normalises its throughput (calibration time ÷ calibNominal).
type stretch struct {
	from, to time.Duration
	chips    int
	scale    float64
}

// throughputSlice is the length of the slices the closed loop's throughput
// is sampled over.
const throughputSlice = 2 * time.Second

// chipsPerS is the median over the window's whole slices of the chips done
// per second, each campaign's chips spread evenly over its run time (chips
// ÷ wall time when no slice is whole). A host stall that covers less than
// half the window does not move it. With norm, each campaign's share is
// normalised by the calibrations around it.
func (w *window) chipsPerS(norm bool) float64 {
	scale := func(f stretch) float64 {
		if norm {
			return f.scale
		}
		return 1
	}
	n := int(w.wall / throughputSlice)
	if n == 0 {
		var c float64
		for _, f := range w.stretches {
			c += float64(f.chips) * scale(f)
		}
		return c / w.wall.Seconds()
	}
	per := make([]float64, n)
	for _, f := range w.stretches {
		for k := int(f.from / throughputSlice); k < n && time.Duration(k)*throughputSlice < f.to; k++ {
			lo := max(f.from, time.Duration(k)*throughputSlice)
			hi := min(f.to, time.Duration(k+1)*throughputSlice)
			per[k] += float64(f.chips) * scale(f) * float64(hi-lo) / float64(max(f.to-f.from, 1)) / throughputSlice.Seconds()
		}
	}
	return median(per)
}

// drive runs the closed loop: fleetClients clients, each submitting the
// next campaign as soon as its previous one finished, until d has elapsed
// and at least sz.campaigns finished (or 3d, whichever comes first). Each
// client runs the calibration kernel before its first campaign and after
// every campaign. l, when non-nil, gets the coordinator spans of every
// campaign.
func (fr *fleetRun) drive(ctx context.Context, d time.Duration, l *ledger) window {
	var w window
	var mu sync.Mutex
	var done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range fleetClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cal := calibrate()
			mu.Lock()
			w.cal = append(w.cal, cal)
			mu.Unlock()
			for {
				el := time.Since(start)
				if (el >= d && int(done.Load()) >= fr.p.sz.campaigns) || el >= 3*d {
					return
				}
				t := time.Now()
				cr := fr.campaign(ctx)
				end := time.Now()
				after := calibrate()
				around := (cal + after) / 2
				cal = after
				if l != nil && cr.err == nil {
					id := l.record("campaign", 0, t, t.Add(cr.start+cr.wait), cr.name)
					l.record("coord.start", id, t, t.Add(cr.start), cr.name)
					l.record("coord.wait", id, t.Add(cr.start), t.Add(cr.start+cr.wait), cr.name)
				}
				done.Add(1)
				mu.Lock()
				w.campaigns++
				w.chips += cr.chips
				w.bad += cr.bad
				w.cal = append(w.cal, after)
				w.stretches = append(w.stretches, stretch{t.Sub(start), end.Sub(start), cr.chips, float64(around) / float64(calibNominal)})
				if cr.err == nil {
					w.lat = append(w.lat, cr.start+cr.wait)
					w.norm = append(w.norm, normalise(cr.start+cr.wait, around))
					w.starts = append(w.starts, cr.start)
					w.waits = append(w.waits, cr.wait)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	return w
}

// requests sums the daemons' request and non-2xx counters.
func (r *rig) requests() (n, bad int64) {
	for _, d := range r.daemons {
		n += d.rt.requests.Load()
		bad += d.rt.non2xx.Load()
	}
	return n, bad
}

// runFleet is the fleet workload: a closed loop of fleetClients clients,
// each submitting sz.fleetLot-chip s9234 campaigns through one coordinator
// to fleetNodes loopback daemons (one worker each, journal without fsync,
// auth on, no rate limit; calibrated period, no pre-pushed plan) and
// waiting for each to finish. The journal skips fsync so that the run
// times the journal code, not a shared disk's flush latency.
func runFleet(ctx context.Context, p params) (*outcome, error) {
	n := p.sz.fleetLot * p.sz.fleetPops
	// The in-process whole-population reference, through the same wire
	// specs the daemons decode.
	reps := 1
	if p.trace {
		reps = p.sz.setupReps
	}
	var st setupTimes
	var ref *effitest.Engine
	var chips []*effitest.Chip
	for range reps {
		var err error
		if ref, chips, err = setUp(ctx, &st, fleetCircuit.Build, p.seed, 0, n, effitest.WithWorkers(1)); err != nil {
			return nil, fmt.Errorf("reference set-up: %w", err)
		}
	}
	want, refFailed := digestAll(ctx, ref, chips)
	if p.tamper != nil {
		p.tamper(want)
	}
	o := &outcome{v: values{}, attempted: n, failed: refFailed}
	o.v["yield_pct"], o.v["tester_iters_per_chip"] = populationStats(want)

	// Set-up, repeated: boot the daemons and the coordinator and run one
	// warm-up campaign (registry Prepare and calibration on each daemon).
	fr := &fleetRun{p: p, want: want, timing: new(atomic.Bool)}
	if p.trace {
		fr.l = newLedger()
	}
	var setup, setupWall []float64
	for i := range p.sz.setupReps {
		if fr.fl != nil {
			if err := fr.fl.close(); err != nil {
				return nil, err
			}
		}
		c0 := calibrate()
		t := time.Now()
		var err error
		if fr.fl, err = bootRig(filepath.Join(p.out, "journal", fmt.Sprintf("boot-%d", i)), fr.l, fr.timing); err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		cr := fr.campaign(ctx)
		if cr.err != nil {
			fr.fl.close()
			return nil, fmt.Errorf("warm-up campaign: %w", cr.err)
		}
		took := time.Since(t)
		setup = append(setup, normalise(took, (c0+calibrate())/2).Seconds())
		setupWall = append(setupWall, took.Seconds())
		o.attempted += 1 + p.sz.fleetLot
		o.failed += cr.bad
	}
	defer fr.fl.close()
	o.v["setup_s"] = median(setup)
	o.v["wall.setup_s"] = median(setupWall)

	d := p.window
	if p.trace {
		d /= 2
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := fr.drive(ctx, d, nil)
	runtime.ReadMemStats(&m1)
	o.attempted += plain.campaigns + plain.chips
	o.failed += plain.bad
	o.v["norm_chips_per_s"] = plain.chipsPerS(true)
	o.v["wall.chips_per_s"] = plain.chipsPerS(false)
	latencyMetrics(o.v, ms(plain.norm), ms(plain.lat), ms(plain.cal))
	o.v["alloc_kb_per_chip"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(max(plain.chips, 1))
	if p.trace {
		if err := fr.trace(ctx, o, d, plain); err != nil {
			return nil, err
		}
		st.report(o.v)
		if err := probeSubmitPath(ctx, o.v, p, fleetCircuit, ref, chips[0]); err != nil {
			return nil, err
		}
		if err := fr.l.writeTrace(filepath.Join(p.out, "trace.ndjson")); err != nil {
			return nil, err
		}
	}
	reqs, bad := fr.fl.requests()
	o.attempted += int(reqs)
	o.failed += int(bad)
	if err := fr.fl.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return o, nil
}

// trace is the fleet's traced pass: the stage ledger on the daemons'
// manager observers, the route timers on their handlers, and the
// coordinator, status, registry and journal snapshots around it.
func (fr *fleetRun) trace(ctx context.Context, o *outcome, d time.Duration, plain window) error {
	type snap struct{ executed, records, bytes, requests int64 }
	take := func() (s snap) {
		for _, dm := range fr.fl.daemons {
			s.executed += dm.m.Stats().ChipsExecuted
			js := dm.j.Stats()
			s.records += js.Records
			s.bytes += js.Bytes
		}
		s.requests, _ = fr.fl.requests()
		return s
	}
	s0 := take()
	from := time.Now()
	fr.l.start()
	fr.timing.Store(true)
	tw := fr.drive(ctx, d, fr.l)
	fr.timing.Store(false)
	sums := fr.l.stop()
	s1 := take()
	o.attempted += tw.campaigns + tw.chips
	o.failed += tw.bad

	if err := stageMetrics(o.v, sums, fleetNodes, tw.wall); err != nil {
		return err
	}
	o.v["fleet.worker_busy_frac"] = o.v["engine.worker_busy_frac"]
	o.v["trace_overhead_pct"] = 100 * (1 - ratio(tw.chipsPerS(true), plain.chipsPerS(true)))
	o.v["coord.start_p50_ms"] = median(ms(tw.starts))
	o.v["coord.wait_p50_ms"] = median(ms(tw.waits))

	lat := map[string][]float64{}
	for _, dm := range fr.fl.daemons {
		dm.rt.mu.Lock()
		for r, ds := range dm.rt.lat {
			lat[r] = append(lat[r], ms(ds)...)
		}
		dm.rt.mu.Unlock()
	}
	o.v["httpapi.submit_p50_ms"] = median(lat["submit"])
	o.v["httpapi.submit_p90_ms"] = quantile(lat["submit"], 0.9)
	o.v["httpapi.results_p50_ms"] = median(lat["results"])
	o.v["httpapi.stats_p50_ms"] = median(lat["stats"])
	o.v["httpapi.requests_per_campaign"] = ratio(float64(s1.requests-s0.requests), float64(tw.campaigns))

	var queue, exec []float64
	var hits, lookups, prepares int
	for _, dm := range fr.fl.daemons {
		for _, c := range dm.m.Campaigns() {
			s := c.Status()
			if s.SubmittedAt.Before(from) || s.FinishedAt.IsZero() {
				continue
			}
			queue = append(queue, float64(s.StartedAt.Sub(s.SubmittedAt))/float64(time.Millisecond))
			exec = append(exec, float64(s.FinishedAt.Sub(s.StartedAt))/float64(time.Millisecond))
		}
		rs := dm.m.Registry().Stats()
		hits += rs.Hits
		lookups += rs.Hits + rs.Misses
		prepares += rs.Prepares
	}
	o.v["fleet.queue_wait_p50_ms"] = median(queue)
	o.v["fleet.exec_p50_ms"] = median(exec)
	o.v["fleet.registry.hit_ratio"] = ratio(float64(hits), float64(lookups))
	o.v["fleet.registry.prepares"] = float64(prepares)
	executed := float64(s1.executed - s0.executed)
	o.v["journal.records_per_chip"] = ratio(float64(s1.records-s0.records), executed)
	o.v["journal.bytes_per_chip"] = ratio(float64(s1.bytes-s0.bytes), executed)
	return nil
}
