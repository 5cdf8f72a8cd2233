package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"effitest"
)

// span is one traced interval. Times are offsets from the ledger's epoch.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Chip     int           `json:"chip"`
	Campaign string        `json:"campaign,omitempty"`
}

// chipKey identifies one chip run: the event source (a daemon, or 0 in
// process) and the chip's manufacturing index. A source runs one chip
// index at a time, so the key is unique while the chip is live.
type chipKey struct{ src, chip int }

// chipRec is a live chip's accounting, built from its flow events.
type chipRec struct {
	span, batchSpan int
	start, batchAt  time.Time
	predictAt       time.Time
}

// ledger is the traced pass's stage accounting: an Observer sink that
// timestamps the flow events of every chip and folds them into per-stage
// sums — tester steps (a batch's span minus its alignment solves), §3.3
// alignment, §3.4 prediction and configuration (Predict to ChipDone:
// Configure plus the final test) — and keeps every span in memory for the
// trace file. Nothing inside the program is instrumented: all it sees are
// the public Observer events. Events of a chip that started before the
// ledger was turned on are ignored.
type ledger struct {
	epoch time.Time
	on    atomic.Bool

	mu       sync.Mutex
	live     map[chipKey]*chipRec
	spans    []span
	parent   int    // span chip spans hang under (the current campaign)
	campaign string // its label
	s        stageSums
}

// stageSums are the ledger's totals over finished chips.
type stageSums struct {
	chips                             int
	align, tester, predict, configure time.Duration
	solves, steps, paths              int
	latency                           []time.Duration // first BatchStart → ChipDone
}

// busy is the time the stages account for.
func (s *stageSums) busy() time.Duration { return s.align + s.tester + s.predict + s.configure }

func newLedger() *ledger {
	return &ledger{epoch: time.Now(), live: map[chipKey]*chipRec{}}
}

// observer returns the sink for one event source. Events are dropped
// while the ledger is off.
func (l *ledger) observer(src int) effitest.Observer {
	return effitest.ObserverFunc(func(e effitest.Event) {
		if l.on.Load() {
			l.observe(src, e, time.Now())
		}
	})
}

// start turns accounting on from a clean slate.
func (l *ledger) start() {
	l.mu.Lock()
	l.live = map[chipKey]*chipRec{}
	l.spans = nil
	l.s = stageSums{}
	l.mu.Unlock()
	l.on.Store(true)
}

// stop turns accounting off and returns the totals.
func (l *ledger) stop() stageSums {
	l.on.Store(false)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s
}

func (l *ledger) at(t time.Time) time.Duration { return t.Sub(l.epoch) }

func (l *ledger) add(sp span) int {
	sp.ID = len(l.spans) + 1
	l.spans = append(l.spans, sp)
	return sp.ID
}

// openSpan records a campaign-level span and makes it the parent of the
// chip spans that follow; closeSpan ends it.
func (l *ledger) openSpan(name, campaign string, t time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.add(span{Name: name, Start: l.at(t), Chip: -1, Campaign: campaign})
	l.parent, l.campaign = id, campaign
	return id
}

func (l *ledger) closeSpan(id int, t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = l.at(t)
	l.parent, l.campaign = 0, ""
}

// record adds a closed span from start to end and returns its ID.
func (l *ledger) record(name string, parent int, start, end time.Time, campaign string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.add(span{Name: name, Parent: parent, Start: l.at(start), End: l.at(end), Chip: -1, Campaign: campaign})
}

func (l *ledger) observe(src int, e effitest.Event, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch e := e.(type) {
	case effitest.BatchStartEvent:
		k := chipKey{src, e.Chip}
		r := l.live[k]
		if r == nil {
			r = &chipRec{start: now}
			r.span = l.add(span{Name: "chip", Parent: l.parent, Start: l.at(now), Chip: e.Chip, Campaign: l.campaign})
			l.live[k] = r
		}
		r.batchAt = now
		r.batchSpan = l.add(span{Name: "batch", Parent: r.span, Start: l.at(now), Chip: e.Chip})
	case effitest.AlignSolveEvent:
		if r := l.live[chipKey{src, e.Chip}]; r != nil {
			l.s.solves++
			l.s.align += e.Duration
			l.add(span{Name: "align", Parent: r.batchSpan, Start: l.at(now.Add(-e.Duration)), End: l.at(now), Chip: e.Chip})
		}
	case effitest.FrequencyStepEvent:
		if l.live[chipKey{src, e.Chip}] != nil {
			l.s.steps++
		}
	case effitest.BatchEndEvent:
		if r := l.live[chipKey{src, e.Chip}]; r != nil {
			l.s.tester += now.Sub(r.batchAt) - e.AlignTime
			l.spans[r.batchSpan-1].End = l.at(now)
		}
	case effitest.PredictEvent:
		if r := l.live[chipKey{src, e.Chip}]; r != nil {
			l.s.predict += e.Duration
			l.s.paths += e.Predicted
			r.predictAt = now
			l.add(span{Name: "predict", Parent: r.span, Start: l.at(now.Add(-e.Duration)), End: l.at(now), Chip: e.Chip})
		}
	case effitest.ChipDoneEvent:
		k := chipKey{src, e.Chip}
		r := l.live[k]
		if r == nil {
			return
		}
		delete(l.live, k)
		l.s.chips++
		l.s.latency = append(l.s.latency, now.Sub(r.start))
		l.spans[r.span-1].End = l.at(now)
		if !r.predictAt.IsZero() {
			l.s.configure += now.Sub(r.predictAt)
			l.add(span{Name: "configure", Parent: r.span, Start: l.at(r.predictAt), End: l.at(now), Chip: e.Chip})
		}
	}
}

// writeTrace writes the spans as NDJSON to path.
func (l *ledger) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageMetrics folds the ledger's sums over a pass of the given wall time
// on the given number of workers into the per-chip stage metrics.
func stageMetrics(v values, s stageSums, workers int, wall time.Duration) error {
	if s.chips == 0 {
		return fmt.Errorf("traced pass finished no chips")
	}
	n := float64(s.chips)
	perChip := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / n }
	busy := s.busy()
	share := func(d time.Duration) float64 { return 100 * ratio(float64(d), float64(busy)) }
	lat := ms(s.latency)
	v["core.align.ms_per_chip"] = perChip(s.align)
	v["core.align.solves_per_chip"] = float64(s.solves) / n
	v["core.align.share_pct"] = share(s.align)
	v["tester.step.ms_per_chip"] = perChip(s.tester)
	v["tester.steps_per_chip"] = float64(s.steps) / n
	v["tester.step.share_pct"] = share(s.tester)
	v["core.predict.ms_per_chip"] = perChip(s.predict)
	v["core.predict.paths_per_chip"] = float64(s.paths) / n
	v["core.predict.share_pct"] = share(s.predict)
	v["core.configure.ms_per_chip"] = perChip(s.configure)
	v["core.configure.share_pct"] = share(s.configure)
	v["engine.chip_p50_ms"] = median(lat)
	v["engine.chip_p99_ms"] = quantile(lat, 0.99)
	v["engine.worker_busy_frac"] = ratio(float64(busy), float64(workers)*float64(wall))
	return nil
}
