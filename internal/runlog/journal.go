// Package runlog makes long enumeration runs crash-safe: a coordinator
// writes a durable write-ahead journal of its run identity and per-block
// lifecycle (dispatched → done, then the level's seal), appends every block's cliques as
// one frame of its recursion level's result log, and on restart replays the
// journal to skip completed work — so a run killed hours in resumes instead
// of re-enumerating, and resumed blocks are exactly-once in the merged
// output.
//
// The journal and the level logs are logs of durable frames
// (internal/durable: length, CRC-32, payload). One committer goroutine
// writes both, a batch of finished blocks at a time: the batch's frames to
// the level log, one fsync, then the batch's records to the journal, one
// fsync (DESIGN.md §12). Replay truncates a torn tail — a record half
// written when the process died — back to the last intact record, the
// standard WAL recovery discipline. Record payloads are a type byte followed
// by uvarint fields, so the format is append-only-evolvable: an unknown
// record type is an error (newer writer), a short payload is corruption.
package runlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"mce/internal/durable"
	"mce/internal/telemetry"
)

// journalMagic heads every journal file; the trailing byte is the format
// version. Version 1 journaled one segment file per block and a graph digest
// this build does not compute; version 2 journaled a level's block count
// without its plan digest; version 3 journaled the level's plan before any
// block ran, and done records without their block's membership digest. All
// three are refused by name.
var journalMagic = [5]byte{'M', 'C', 'E', 'J', 4}

// version1Refusal is what a version-1 checkpoint is told, whether it is
// recognised by its journal or by its segments directory.
const version1Refusal = "a version-1 checkpoint (one segment file per block), which this build cannot resume; restart the run in a fresh -checkpoint directory"

// olderRefusal is what a version-2 or version-3 journal is told.
const olderRefusal = "this build cannot resume it; restart the run in a fresh -checkpoint directory"

// maxRecordLen bounds one record's payload; anything larger in a frame
// header is treated as corruption (a torn or overwritten length field), not
// an allocation request.
const maxRecordLen = 1 << 20

// record types. The lifecycle of one block is recDispatch → recDone; its
// level's recLevel follows the level's last done record.
const (
	recRunBegin byte = iota + 1 // identity of a fresh run
	recResume                   // a new coordinator session attached
	recLevel                    // one recursion level sealed: its plan, every block done
	recDispatch                 // block handed to an executor
	recDone                     // block's cliques durably in its level's log
	recRunEnd                   // the run completed
)

// rec is one decoded journal record; unused fields are zero.
type rec struct {
	kind        byte
	graph, opts uint64 // recRunBegin / recResume
	level       int    // recLevel / recDispatch / recDone
	blocks      int    // recLevel: planned block count
	planDigest  uint64 // recLevel: digest of the block plan (decomp.Plan.Digest)
	plan        int    // recDispatch / recDone: stable block index within the level
	off, length int    // recDone: where the block's frame lies in its level's log
	count       int    // recDone: clique count
	digest      uint32 // recDone: CRC-32 of the frame's payload
	member      uint64 // recDone: digest of the block's membership (decomp.Block.Digest)
}

// encode appends the record's payload (type byte + uvarint fields).
func (r *rec) encode(buf []byte) []byte {
	buf = append(buf, r.kind)
	put := func(v uint64) { buf = binary.AppendUvarint(buf, v) }
	switch r.kind {
	case recRunBegin, recResume:
		put(r.graph)
		put(r.opts)
	case recLevel:
		put(uint64(r.level))
		put(uint64(r.blocks))
		put(r.planDigest)
	case recDispatch:
		put(uint64(r.level))
		put(uint64(r.plan))
	case recDone:
		put(uint64(r.level))
		put(uint64(r.plan))
		put(uint64(r.off))
		put(uint64(r.length))
		put(uint64(r.count))
		put(uint64(r.digest))
		put(r.member)
	case recRunEnd:
	}
	return buf
}

// decodeRec parses one record payload.
func decodeRec(p []byte) (rec, error) {
	if len(p) == 0 {
		return rec{}, errors.New("runlog: empty record")
	}
	r := rec{kind: p[0]}
	p = p[1:]
	get := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, errors.New("runlog: short record payload")
		}
		p = p[n:]
		return v, nil
	}
	getUpTo := func(bound uint64) (uint64, error) {
		v, err := get()
		if err == nil && v > bound {
			err = fmt.Errorf("runlog: implausible field value %d", v)
		}
		return v, err
	}
	getInt := func(dst *int) error {
		v, err := getUpTo(1 << 40)
		*dst = int(v)
		return err
	}
	var err error
	switch r.kind {
	case recRunBegin, recResume:
		if r.graph, err = get(); err != nil {
			return r, err
		}
		if r.opts, err = get(); err != nil {
			return r, err
		}
	case recLevel:
		if err = errors.Join(getInt(&r.level), getInt(&r.blocks)); err != nil {
			return r, err
		}
		if r.planDigest, err = get(); err != nil {
			return r, err
		}
	case recDispatch:
		if err = errors.Join(getInt(&r.level), getInt(&r.plan)); err != nil {
			return r, err
		}
	case recDone:
		if err = errors.Join(getInt(&r.level), getInt(&r.plan), getInt(&r.off), getInt(&r.length), getInt(&r.count)); err != nil {
			return r, err
		}
		dig, err := getUpTo(math.MaxUint32) // a wider field is malformed, not a digest to truncate
		if err != nil {
			return r, err
		}
		r.digest = uint32(dig)
		if r.member, err = get(); err != nil {
			return r, err
		}
	case recRunEnd:
	default:
		return r, fmt.Errorf("runlog: unknown record type %d (journal from a newer build?)", r.kind)
	}
	if len(p) != 0 {
		return r, fmt.Errorf("runlog: %d trailing bytes in record type %d", len(p), r.kind)
	}
	return r, nil
}

// journal is the framed record log. Records are framed into a buffer by
// add and reach the file in flush: one Write and one fsync for however many
// records the committer's batch held.
type journal struct {
	f       File
	met     *telemetry.Engine
	payload []byte
	frames  []byte // added, not yet flushed
	added   int64  // records in frames
	err     error  // first write failure; the journal is dead afterwards
}

// add frames one record into the buffer.
func (j *journal) add(r *rec) {
	j.payload = r.encode(j.payload[:0])
	j.frames = durable.AppendFrame(j.frames, j.payload)
	j.added++
}

// flush writes and fsyncs the buffered records; failures stick so a
// half-written frame is never followed by more records in the same session.
func (j *journal) flush() error {
	if j.err != nil || len(j.frames) == 0 {
		return j.err
	}
	if _, err := j.f.Write(j.frames); err != nil {
		j.err = fmt.Errorf("runlog: journal write: %w", err)
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("runlog: journal sync: %w", err)
		return j.err
	}
	j.met.Add(telemetry.CheckpointRecords, j.added)
	j.met.Add(telemetry.CheckpointBytes, int64(len(j.frames)))
	j.frames, j.added = j.frames[:0], 0
	return nil
}

func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if j.err != nil {
		return j.err
	}
	return err
}

// replayJournal reads every intact record of the journal at path and
// reports the byte offset of the valid prefix. A torn tail — short frame,
// short payload, checksum mismatch, or an undecodable record — ends the
// replay at the last intact record; everything before a torn tail must
// decode, so corruption in the middle of the file surfaces as a short
// valid prefix rather than being skipped over.
//
// A missing or empty file replays to zero records at offset len(magic),
// i.e. a fresh journal.
func replayJournal(fs FS, path string) (recs []rec, validOff int64, err error) {
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, int64(len(journalMagic)), nil
		}
		return nil, 0, fmt.Errorf("runlog: open journal: %w", err)
	}
	defer f.Close()

	var magic [len(journalMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		// Shorter than the magic: the process died before the header hit
		// the disk. Treat as a fresh journal.
		return nil, int64(len(journalMagic)), nil
	}
	if magic != journalMagic {
		switch magic {
		case [5]byte{'M', 'C', 'E', 'J', 1}:
			return nil, 0, fmt.Errorf("runlog: %s is a version-1 journal: %s", path, version1Refusal)
		case [5]byte{'M', 'C', 'E', 'J', 2}:
			return nil, 0, fmt.Errorf("runlog: %s is a version-2 journal (level records without a plan digest): %s", path, olderRefusal)
		case [5]byte{'M', 'C', 'E', 'J', 3}:
			return nil, 0, fmt.Errorf("runlog: %s is a version-3 journal (done records without a membership digest): %s", path, olderRefusal)
		}
		return nil, 0, fmt.Errorf("runlog: %s is not a run journal (bad magic)", path)
	}
	off := int64(len(journalMagic))
	frames := durable.NewFrameReader(f, maxRecordLen)
	for {
		payload, err := frames.Next()
		if err != nil {
			return recs, off, nil // clean end, or a torn or bit-rotted frame
		}
		r, err := decodeRec(payload)
		if err != nil {
			return recs, off, nil // undecodable: stop at the last good record
		}
		recs = append(recs, r)
		off += int64(durable.FrameHeaderLen + len(payload))
	}
}

// openJournalForAppend opens (creating if absent) the journal at path,
// truncates any torn tail at validOff, and positions the write cursor at
// the end of the valid prefix.
func openJournalForAppend(fs FS, path string, validOff int64, met *telemetry.Engine) (*journal, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runlog: open journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("runlog: stat journal: %w", err)
	}
	if st.Size() < int64(len(journalMagic)) {
		// Fresh (or header-torn) journal: write the magic from scratch.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("runlog: truncate journal: %w", err)
		}
		if _, err := f.WriteAt(journalMagic[:], 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("runlog: write journal header: %w", err)
		}
		validOff = int64(len(journalMagic))
	} else if st.Size() > validOff {
		// Torn tail: cut back to the last intact record so the next append
		// starts a clean frame.
		if err := f.Truncate(validOff); err != nil {
			f.Close()
			return nil, fmt.Errorf("runlog: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(validOff, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("runlog: seek journal: %w", err)
	}
	return &journal{f: f, met: met}, nil
}
