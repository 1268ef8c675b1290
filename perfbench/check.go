package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// stopSeq in a payload header tells the receiving rank that the phase is
// over; it is never a data sequence number.
const stopSeq = ^uint64(0)

// hdrBytes is the sequence-number header every payload starts with.
const hdrBytes = 8

// patternSkew bounds how far a message's body is shifted into the pattern
// block, so consecutive sequence numbers carry different bytes at every
// offset and a stale or swapped buffer cannot pass the check.
const patternSkew = 251

// pattern is the seed-derived byte block payload bodies are cut from.
type pattern struct {
	block []byte
}

// newPattern derives the block for payloads up to maxSize bytes from seed.
func newPattern(seed int64, maxSize int) *pattern {
	block := make([]byte, maxSize+patternSkew)
	rand.New(rand.NewSource(seed)).Read(block)
	return &pattern{block: block}
}

// body returns the bytes message seq carries after its header.
func (p *pattern) body(seq uint64, n int) []byte {
	off := int(seq % patternSkew)
	return p.block[off : off+n-hdrBytes]
}

// stamp writes message seq into b: the header, then the body.
func (p *pattern) stamp(b []byte, seq uint64) {
	binary.LittleEndian.PutUint64(b, seq)
	if seq != stopSeq {
		copy(b[hdrBytes:], p.body(seq, len(b)))
	}
}

// seqOf reads the header of a received payload.
func seqOf(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// check reports whether b is exactly message seq of length want: the
// length, the header and every body byte.
func (p *pattern) check(b []byte, want int, seq uint64) bool {
	return len(b) == want && seqOf(b) == seq && bytes.Equal(b[hdrBytes:], p.body(seq, want))
}
