package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Recover scans the journal directory and adopts every segment:
//
//   - torn or corrupt tails (interrupted appends, bit flips) are truncated
//     at the last intact record;
//   - segments whose first record is not a trustworthy spec for their own
//     file name are renamed aside (<id>.wal.corrupt) and skipped — a
//     damaged log may lose campaigns, but it can never fabricate one;
//   - unsettled segments are reopened for append, so the resumed campaign
//     keeps journaling into its original file;
//   - leftover compaction temp files are removed.
//
// It returns every readable campaign, settled ones included (their IDs let
// the manager keep its ID sequence collision-free), sorted by campaign ID.
// Recover is not idempotent in the presence of concurrent appends; call it
// once, at boot, before submitting work.
func (j *Journal) Recover() ([]Campaign, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var camps []Campaign
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, tmpSuffix) {
			os.Remove(filepath.Join(j.dir, name))
			continue
		}
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		id := strings.TrimSuffix(name, segSuffix)
		if _, ok := j.open[id]; ok {
			// Already adopted by an earlier Recover of this instance.
			continue
		}
		camp, ok, err := j.recoverSegmentLocked(id)
		if err != nil {
			return nil, err
		}
		if ok {
			camps = append(camps, camp)
		}
	}
	sort.Slice(camps, func(a, b int) bool { return camps[a].Spec.ID < camps[b].Spec.ID })
	return camps, nil
}

// recoverSegmentLocked reads, repairs and (when unsettled) adopts one
// segment. Returns ok=false when the segment was skipped as untrustworthy.
// Called with j.mu held.
func (j *Journal) recoverSegmentLocked(id string) (Campaign, bool, error) {
	path := filepath.Join(j.dir, id+segSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		return Campaign{}, false, fmt.Errorf("journal: %w", err)
	}
	camp, good, ok := parseSegment(id, data)
	if !ok || ValidateID(id) != nil {
		// No trustworthy spec record for this file name: set the bytes
		// aside for the operator rather than guessing at a campaign.
		j.skipped++
		os.Rename(path, path+corruptSuffix)
		j.syncDirLocked()
		return Campaign{}, false, nil
	}
	if good < len(data) && !camp.Settled() {
		// Torn tail on a live segment: cut it so the resumed campaign
		// appends onto an intact log. (A settled segment's trailing garbage
		// is unreachable anyway — nothing after settle is ever replayed —
		// and the file will not be appended to again.)
		if err := os.Truncate(path, int64(good)); err != nil {
			return Campaign{}, false, fmt.Errorf("journal: truncating torn tail of %s: %w", id, err)
		}
		j.torn++
	}
	if camp.Settled() {
		j.settled++
		j.settledB += int64(len(data))
		return camp, true, nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return Campaign{}, false, fmt.Errorf("journal: reopening %s: %w", id, err)
	}
	seg := &segment{f: f, size: int64(good), spec: camp.Spec}
	seg.spec.Payload = nil
	j.open[id] = seg
	return camp, true, nil
}

// parseSegment decodes one segment's intact record prefix into a Campaign.
// good is the byte length of that prefix (framing-wise); ok is false when
// the segment has no trustworthy spec — a first record that is missing,
// not a spec, undecodable, or claiming a different campaign ID than the
// file name (a cross-linked or truncated-and-reused segment must not leak
// another campaign's records).
//
// Within the intact prefix, damage is contained per record: an undecodable
// payload, an out-of-range or duplicate chip index, or an outcome-less
// success is skipped, never invented. Records after the settle record are
// unreachable by design and ignored.
func parseSegment(id string, data []byte) (camp Campaign, good int, ok bool) {
	recs, good := parseFrames(data)
	if len(recs) == 0 || recs[0].typ != recSpec {
		return Campaign{}, good, false
	}
	if err := json.Unmarshal(recs[0].payload, &camp.Spec); err != nil {
		return Campaign{}, good, false
	}
	if camp.Spec.ID != id || camp.Spec.ChipCount < 0 {
		return Campaign{}, good, false
	}
	seen := map[int]bool{}
	for _, rec := range recs[1:] {
		switch rec.typ {
		case recChip:
			var cr ChipRecord
			if err := json.Unmarshal(rec.payload, &cr); err != nil {
				continue
			}
			if cr.Index < 0 || (camp.Spec.ChipCount > 0 && cr.Index >= camp.Spec.ChipCount) {
				continue
			}
			if cr.Error == "" && cr.Outcome == nil {
				continue
			}
			if seen[cr.Index] {
				continue
			}
			seen[cr.Index] = true
			camp.Chips = append(camp.Chips, cr)
		case recSettle:
			var sr settleRecord
			if err := json.Unmarshal(rec.payload, &sr); err != nil || sr.State == "" {
				continue
			}
			camp.State, camp.Err = sr.State, sr.Error
			return camp, good, true
		}
		// Unknown record types within an intact frame are skipped: a newer
		// writer may add kinds an older reader can ignore.
	}
	return camp, good, true
}
