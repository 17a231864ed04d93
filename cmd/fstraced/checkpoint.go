package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/obs"
	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
)

// The daemon checkpoint file (-state): everything a restarted fstraced
// needs to continue its run as if it never stopped. See DESIGN.md §12.
//
// Layout, CRC32(IEEE)-protected end to end and written atomically
// (temp file + rename, like the manifest):
//
//	magic "FSDCKPT1"
//	version        uvarint
//	fingerprint    profile, seed, duration, scale (exact bits), shards,
//	               checkpoint interval — resume refuses a mismatch, since
//	               a different configuration generates a different trace
//	position       events analyzed (N), time of the last analyzed event
//	stream         analyzer.Stream blob (length-prefixed)
//	ingest log     total, name sequence, recent summaries (JSON)
//	counters       registry counters, sorted by name
//	crc32          of all preceding bytes, little-endian
//
// A resumed daemon regenerates the deterministic workload, fast-forwards
// past the first N events, and continues analysis from the restored
// stream — the final report is byte-identical to an uninterrupted run.
// The validator is not stored: the producer rebuilds it from the same N
// regenerated events. Everything is bounds-checked; a corrupt or
// truncated file yields an error, never a panic (FuzzDecodeCheckpoint).

var ckptMagic = [8]byte{'F', 'S', 'D', 'C', 'K', 'P', 'T', '1'}

const ckptVersion = 2

// errCkptFinished reports a checkpoint attempt after the analysis
// finished: a finished run has nothing left to resume.
var errCkptFinished = errors.New("fstraced: analysis finished; nothing to checkpoint")

// daemonState is a decoded daemon checkpoint.
type daemonState struct {
	events    int64
	lastTime  trace.Time
	stream    *analyzer.Stream
	ingTotal  int64
	ingSeq    int64
	ingRecent []ingestSummary
	counters  map[string]int64
}

// checkpointBytes serializes the daemon's resumable state. It fails
// with errCkptFinished once the analysis has finished.
func (d *daemon) checkpointBytes() ([]byte, error) {
	d.live.mu.Lock()
	defer d.live.mu.Unlock()
	if d.live.final != nil {
		return nil, errCkptFinished
	}
	streamBlob, err := d.live.stream.MarshalBinary()
	if err != nil {
		return nil, err
	}
	events := d.live.events
	lastTime := d.live.stream.LastTime()
	ingTotal, ingSeq, recent := d.ing.state()
	counters := d.reg.Manifest(obs.RunInfo{}).Counters

	buf := append([]byte(nil), ckptMagic[:]...)
	buf = stats.AppendUvarint(buf, ckptVersion)
	buf = stats.AppendBytes(buf, []byte(d.cfg.profile))
	buf = stats.AppendVarint(buf, d.cfg.seed)
	buf = stats.AppendVarint(buf, int64(d.cfg.duration))
	buf = stats.AppendFloat(buf, d.cfg.scale)
	buf = stats.AppendVarint(buf, int64(d.cfg.shards))
	buf = stats.AppendVarint(buf, int64(d.cfg.interval))
	buf = stats.AppendVarint(buf, events)
	buf = stats.AppendVarint(buf, int64(lastTime))
	buf = stats.AppendBytes(buf, streamBlob)
	buf = stats.AppendVarint(buf, ingTotal)
	buf = stats.AppendVarint(buf, ingSeq)
	buf = stats.AppendUvarint(buf, uint64(len(recent)))
	for _, s := range recent {
		js, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		buf = stats.AppendBytes(buf, js)
	}
	buf = stats.AppendUvarint(buf, uint64(len(counters)))
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		buf = stats.AppendBytes(buf, []byte(k))
		buf = stats.AppendVarint(buf, counters[k])
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// writeCheckpoint writes the state file atomically. A finished analysis
// is not an error to the callers' loops: it reports errCkptFinished and
// leaves the last resumable checkpoint in place.
func (d *daemon) writeCheckpoint() error {
	if d.cfg.state == "" {
		return nil
	}
	buf, err := d.checkpointBytes()
	if err != nil {
		return err
	}
	tmp := d.cfg.state + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, d.cfg.state); err != nil {
		return err
	}
	d.reg.Counter("fstraced.checkpoint.writes").Inc()
	return nil
}

// decodeCheckpoint decodes and verifies a checkpoint against the
// daemon's configuration. It never panics on corrupt input.
func decodeCheckpoint(data []byte, cfg config) (*daemonState, error) {
	if len(data) < len(ckptMagic)+4 {
		return nil, fmt.Errorf("fstraced: checkpoint too short (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errors.New("fstraced: checkpoint CRC mismatch")
	}
	if string(payload[:len(ckptMagic)]) != string(ckptMagic[:]) {
		return nil, errors.New("fstraced: not a daemon checkpoint")
	}
	d := stats.NewDecoder(payload[len(ckptMagic):])
	if ver := d.Uvarint(); ver != ckptVersion {
		d.Fail(fmt.Errorf("fstraced: checkpoint version %d, want %d", ver, ckptVersion))
		return nil, d.Err()
	}

	profile := string(d.Bytes())
	seed := d.Varint()
	duration := trace.Time(d.Varint())
	scale := d.Float()
	shards := int(d.Varint())
	interval := int(d.Varint())
	if profile != cfg.profile || seed != cfg.seed || duration != cfg.duration ||
		math.Float64bits(scale) != math.Float64bits(cfg.scale) ||
		shards != cfg.shards || interval != cfg.interval {
		d.Fail(fmt.Errorf("fstraced: checkpoint is for profile=%s seed=%d duration=%v scale=%g shards=%d checkpoint=%d; flags differ — refusing to resume a different run",
			profile, seed, duration, scale, shards, interval))
	}

	st := &daemonState{}
	st.events = d.Varint()
	if st.events < 0 {
		d.Fail(stats.ErrCorruptState)
	}
	st.lastTime = trace.Time(d.Varint())
	var err error
	if st.stream, err = analyzer.RestoreStream(d.Bytes(), analyzer.Options{}); err != nil {
		d.Fail(err)
	} else if st.stream.Events() != st.events {
		d.Fail(fmt.Errorf("fstraced: checkpoint position %d disagrees with stream state %d", st.events, st.stream.Events()))
	}

	st.ingTotal = d.Varint()
	st.ingSeq = d.Varint()
	n := d.Count()
	if n > 1<<16 {
		d.Fail(stats.ErrCorruptState)
	}
	for ; n > 0 && d.Err() == nil; n-- {
		var sum ingestSummary
		if err := json.Unmarshal(d.Bytes(), &sum); err != nil {
			d.Fail(fmt.Errorf("fstraced: checkpoint ingest summary: %w", err))
		}
		st.ingRecent = append(st.ingRecent, sum)
	}

	n = d.Count()
	if n > 1<<16 {
		d.Fail(stats.ErrCorruptState)
	}
	st.counters = make(map[string]int64)
	for ; n > 0 && d.Err() == nil; n-- {
		name := string(d.Bytes())
		st.counters[name] = d.Varint()
	}
	if d.Len() != 0 {
		d.Fail(fmt.Errorf("fstraced: %d trailing bytes in checkpoint", d.Len()))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// loadCheckpoint reads and decodes the state file.
func loadCheckpoint(path string, cfg config) (*daemonState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data, cfg)
}

// restore primes a not-yet-started daemon with checkpointed state: the
// analysis continues from the restored stream, the producer will
// fast-forward past the first st.events regenerated events, checking
// them into the fresh validator, and the recorder will frame its output
// as a resumed v2 stream whose first checkpoint announces the resume
// position to joining readers.
func (d *daemon) restore(st *daemonState) {
	d.resumeFrom = st.events
	d.resumeTime = st.lastTime
	d.live.stream = st.stream
	d.live.events = st.events
	d.ing.mu.Lock()
	d.ing.total = st.ingTotal
	d.ing.seq = st.ingSeq
	d.ing.recent = append([]ingestSummary(nil), st.ingRecent...)
	d.ing.mu.Unlock()
	for k, v := range st.counters {
		d.reg.Counter(k).Set(v)
	}
	d.reg.Counter("fstraced.checkpoint.restores").Inc()
}
