// Package journal is the fleet's durable campaign log: an append-only,
// fsync-disciplined write-ahead record of campaign lifecycle that makes
// effitestd crash-safe. Each campaign owns one segment file
// (<campaign-id>.wal) holding a spec record, then one record per completed
// chip, then a terminal settle record. Records are CRC-framed (see
// record.go); on reopen, Recover truncates torn tails, skips segments that
// cannot be trusted, and hands back every campaign so the manager can
// replay completed chips instead of re-executing them — bit-identical,
// because the flow itself is deterministic.
//
// Fsync policy: every append is flushed with one write syscall and fsynced
// before the call returns, and segment creation fsyncs the directory — a
// record acknowledged to the caller survives a kernel panic. WithoutSync
// relaxes this for tests. Once a campaign settles, its segment is
// compacted to spec + settle (the per-chip history is dead weight once the
// outcome is final) via write-temp, fsync, rename, fsync-dir.
package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Sentinel errors; match with errors.Is.
var (
	// ErrClosed tags operations on a closed journal.
	ErrClosed = errors.New("journal: closed")
	// ErrSegmentClosed tags an append for a campaign whose segment is not
	// open — it already settled (and was compacted) or was never begun.
	// Callers racing a settle may treat it as benign: the record would have
	// been dropped by recovery anyway (nothing after settle is replayed).
	ErrSegmentClosed = errors.New("journal: segment closed")
	// ErrExists tags a Begin for a campaign ID that already has a segment.
	ErrExists = errors.New("journal: segment exists")
)

const (
	segSuffix     = ".wal"
	tmpSuffix     = ".wal.tmp"
	corruptSuffix = ".corrupt"
)

// Stats is a point-in-time snapshot of the journal's footprint and
// traffic, cheap enough for a hot /stats endpoint.
type Stats struct {
	// Segments counts tracked segment files on disk; OpenSegments counts
	// the subset still accepting appends (unsettled campaigns).
	Segments     int
	OpenSegments int
	// Bytes is the on-disk size of tracked segments.
	Bytes int64
	// Records counts records appended through this journal instance.
	Records int64
	// AppendErrors counts appends that failed (I/O errors, disk full). The
	// manager keeps executing — losing durability degrades recovery, not
	// correctness — so this counter is the operator's signal.
	AppendErrors int64
	// TornTruncations counts torn or corrupt tails cut off by Recover;
	// SegmentsSkipped counts segments Recover refused to trust at all.
	TornTruncations int64
	SegmentsSkipped int64
	// Compactions counts settled segments rewritten to spec + settle.
	Compactions int64
}

// segment is one open (appendable) campaign log file. spec is its spec
// record minus the payload — what compaction rewrites — kept so that
// settling never re-reads the file.
type segment struct {
	f    *os.File
	size int64
	spec Spec
}

// Journal is a directory of campaign segments. All methods are safe for
// concurrent use; appends across campaigns serialize on one mutex, which
// is deliberate — the fsync is the cost, and one disciplined writer keeps
// the format trivially torn-tail-recoverable.
type Journal struct {
	dir  string
	sync bool

	mu       sync.Mutex
	closed   bool
	open     map[string]*segment
	settled  int   // settled (compacted) segments on disk
	settledB int64 // bytes held by settled segments
	records  int64
	appendE  int64
	torn     int64
	skipped  int64
	compacts int64
}

// Option configures a Journal at Open time.
type Option func(*Journal)

// WithoutSync disables the per-record fsync (directory syncs too). Only
// for tests: an acknowledged record may be lost on power failure.
func WithoutSync() Option {
	return func(j *Journal) { j.sync = false }
}

// Open creates or reuses the journal directory. Existing segments are not
// read here — call Recover to adopt them.
func Open(dir string, opts ...Option) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, sync: true, open: map[string]*segment{}}
	for _, o := range opts {
		o(j)
	}
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// ValidateID reports whether id is usable as a segment name: 1–200 bytes
// of [A-Za-z0-9._-], not starting with a dot. Manager-assigned campaign
// IDs (c%06d) always pass; the check exists so a hostile recovered ID can
// never escape the journal directory.
func ValidateID(id string) error {
	if id == "" || len(id) > 200 || id[0] == '.' {
		return fmt.Errorf("journal: invalid campaign id %q", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("journal: invalid campaign id %q", id)
		}
	}
	return nil
}

// Begin opens a new segment for a campaign and durably appends its spec
// record. The campaign is recoverable from the moment Begin returns.
func (j *Journal) Begin(sp Spec) error {
	if err := ValidateID(sp.ID); err != nil {
		return err
	}
	frame, err := encodeRecord(recSpec, sp)
	if err != nil {
		return fmt.Errorf("journal: encoding spec: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if _, ok := j.open[sp.ID]; ok {
		return fmt.Errorf("%w: %s", ErrExists, sp.ID)
	}
	path := filepath.Join(j.dir, sp.ID+segSuffix)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return fmt.Errorf("%w: %s", ErrExists, sp.ID)
		}
		j.appendE++
		return fmt.Errorf("journal: %w", err)
	}
	seg := &segment{f: f, spec: sp}
	seg.spec.Payload = nil
	if err := j.appendLocked(seg, frame); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	// The record is durable in the file; make the file itself durable.
	if err := j.syncDirLocked(); err != nil {
		f.Close()
		return err
	}
	j.open[sp.ID] = seg
	return nil
}

// AppendChip durably appends one completed chip to the campaign's segment.
// Appending to a settled (or unknown) campaign returns ErrSegmentClosed.
func (j *Journal) AppendChip(id string, rec ChipRecord) error {
	frame, err := encodeRecord(recChip, rec)
	if err != nil {
		return fmt.Errorf("journal: encoding chip record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	seg, ok := j.open[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrSegmentClosed, id)
	}
	return j.appendLocked(seg, frame)
}

// Settle durably appends the campaign's terminal record, then compacts the
// segment down to spec + settle: the per-chip history only matters while
// the outcome is still open. The settle record is fsynced before
// compaction starts, so a crash at any point leaves the campaign terminal
// on disk.
func (j *Journal) Settle(id, state, errMsg string) error {
	frame, err := encodeRecord(recSettle, settleRecord{State: state, Error: errMsg})
	if err != nil {
		return fmt.Errorf("journal: encoding settle record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	seg, ok := j.open[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrSegmentClosed, id)
	}
	if err := j.appendLocked(seg, frame); err != nil {
		return err
	}
	j.compactLocked(id, seg, state, errMsg)
	return nil
}

// appendLocked writes one frame and fsyncs. Called with j.mu held.
func (j *Journal) appendLocked(seg *segment, frame []byte) error {
	if _, err := seg.f.Write(frame); err != nil {
		j.appendE++
		return fmt.Errorf("journal: append: %w", err)
	}
	seg.size += int64(len(frame))
	if j.sync {
		if err := seg.f.Sync(); err != nil {
			j.appendE++
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	j.records++
	return nil
}

// compactLocked rewrites a settled segment to spec (payload dropped — it
// will never be re-admitted) + settle, via temp file and atomic rename.
// Best-effort: on any failure the full segment simply stays, which
// recovery handles identically (the settle record is already durable).
// Called with j.mu held; the segment leaves the open set either way.
func (j *Journal) compactLocked(id string, seg *segment, state, errMsg string) {
	delete(j.open, id)
	j.settled++
	finalSize := seg.size
	defer func() {
		seg.f.Close()
		j.settledB += finalSize
	}()

	buf, err := encodeRecord(recSpec, seg.spec)
	if err != nil {
		return
	}
	settle, err := encodeRecord(recSettle, settleRecord{State: state, Error: errMsg})
	if err != nil {
		return
	}
	buf = append(buf, settle...)
	tmp := filepath.Join(j.dir, id+tmpSuffix)
	if err := j.writeFileSynced(tmp, buf); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, id+segSuffix)); err != nil {
		os.Remove(tmp)
		return
	}
	j.syncDirLocked()
	j.compacts++
	finalSize = int64(len(buf))
}

// writeFileSynced writes data to path and fsyncs the file.
func (j *Journal) writeFileSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if j.sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// syncDirLocked fsyncs the journal directory, making creations and renames
// durable.
func (j *Journal) syncDirLocked() error {
	if !j.sync {
		return nil
	}
	d, err := os.Open(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	return nil
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Stats{
		Segments:        len(j.open) + j.settled,
		OpenSegments:    len(j.open),
		Bytes:           j.settledB,
		Records:         j.records,
		AppendErrors:    j.appendE,
		TornTruncations: j.torn,
		SegmentsSkipped: j.skipped,
		Compactions:     j.compacts,
	}
	for _, seg := range j.open {
		st.Bytes += seg.size
	}
	return st
}

// Close flushes and closes every open segment. The journal directory stays
// fully recoverable; Close never settles anything.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var first error
	for id, seg := range j.open {
		if j.sync {
			if err := seg.f.Sync(); err != nil && first == nil {
				first = err
			}
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
		delete(j.open, id)
	}
	return first
}
