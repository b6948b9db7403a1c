package engine

import (
	"crypto/sha256"

	"beyondiv/internal/codec"
	"beyondiv/internal/obs"
)

// Disk-tier key derivation. Each program has one entry, keyed by its
// structural hash under a domain tag, mixed with the engine fingerprint
// (options + limits + pass names, length-prefixed):
//
//	entry key = H("biv.entry" ‖ fp ‖ structural hash)
//
// The entry holds the encoded artifact. Formatting variants of one
// program share it.
func (e *Engine) entryKey(structSum [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("biv.entry\x00"))
	h.Write([]byte(e.fp))
	h.Write([]byte{0})
	h.Write(structSum[:])
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// storeCount bumps a disk-tier counter on both telemetry backends.
func (e *Engine) storeCount(rec *obs.Recorder, name string) {
	rec.Count(name)
	if e.ins != nil {
		e.ins.count(name)
	}
}

// entryGet reads and decodes the entry for structSum. A corrupt entry
// is deleted, counted and reported as a miss.
func (e *Engine) entryGet(structSum [32]byte, rec *obs.Recorder) *codec.Artifact {
	ek := e.entryKey(structSum)
	data, ok := e.cfg.Store.Get(ek)
	if !ok {
		return nil
	}
	art, err := codec.Decode(data)
	if err != nil {
		e.cfg.Store.Delete(ek)
		e.storeCount(rec, "engine.store.corrupt")
		return nil
	}
	e.storeCount(rec, "engine.store.hit")
	e.storeCount(rec, "engine.store.hit.struct")
	return art
}

// diskWrite persists a fresh successful run: the encoded artifact under
// its structural key. Serialization or I/O failures only cost
// persistence — the live result has already been computed and is
// returned regardless.
func (e *Engine) diskWrite(st *State, structSum [32]byte, rec *obs.Recorder) {
	data, err := e.cfg.BuildArtifact(st)
	if err != nil || data == nil {
		return
	}
	evicted, err := e.cfg.Store.Put(e.entryKey(structSum), data)
	if err != nil {
		return
	}
	e.storeCount(rec, "engine.store.write")
	if evicted > 0 {
		rec.Add("engine.store.evict", int64(evicted))
		if e.ins != nil {
			e.ins.reg.Add("engine.store.evict", int64(evicted))
		}
	}
}
