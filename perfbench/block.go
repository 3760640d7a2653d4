package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// Every 4 KiB block the benchmark writes describes itself: a 32-byte
// header naming the file, the block, the writer and a sequence number,
// followed by one of a fixed set of seeded random bodies. The header's
// checksum covers the header and the body, so a torn, misplaced or
// stale block fails validation wherever it is read back.
//
// Header layout (little endian):
//
//	0  magic  uint32
//	4  file   uint32
//	8  block  uint32 (appendedBlock for blocks written by APPEND)
//	12 writer uint32
//	16 seq    uint64
//	24 body   uint32 (index of the body)
//	28 crc    uint32 = crc32c(header[0:28]) ^ crc32c(body)
const (
	blockSize  = 4096
	hdrSize    = 32
	blockMagic = 0x4b425450 // "PTBK"
	numBodies  = 64
	preloadSeq = 0
	preloadWho = 0xffff
)

// appendedBlock marks a block written by APPEND, whose position is only
// known once the call returns.
const appendedBlock = ^uint32(0)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockID is what a block header says about itself.
type blockID struct {
	file, block, writer uint32
	seq                 uint64
}

// bodies holds the seeded block bodies and their checksums.
type bodies struct {
	data [numBodies][]byte
	crc  [numBodies]uint32
}

func newBodies(seed int64) *bodies {
	r := rand.New(rand.NewSource(seed ^ 0x5eed_b0d1))
	b := &bodies{}
	for i := range b.data {
		b.data[i] = make([]byte, blockSize-hdrSize)
		r.Read(b.data[i])
		b.crc[i] = crc32.Checksum(b.data[i], castagnoli)
	}
	return b
}

// fill copies body k into a block buffer; stamp then only writes the
// header, so a buffer is filled once and stamped per write.
func (b *bodies) fill(dst []byte, k int) {
	copy(dst[hdrSize:blockSize], b.data[k%numBodies])
	binary.LittleEndian.PutUint32(dst[24:], uint32(k%numBodies))
}

// stamp writes the header of a block whose body was placed by fill.
func (b *bodies) stamp(dst []byte, id blockID) {
	binary.LittleEndian.PutUint32(dst[0:], blockMagic)
	binary.LittleEndian.PutUint32(dst[4:], id.file)
	binary.LittleEndian.PutUint32(dst[8:], id.block)
	binary.LittleEndian.PutUint32(dst[12:], id.writer)
	binary.LittleEndian.PutUint64(dst[16:], id.seq)
	k := binary.LittleEndian.Uint32(dst[24:])
	sum := crc32.Checksum(dst[:28], castagnoli) ^ b.crc[k%numBodies]
	binary.LittleEndian.PutUint32(dst[28:], sum)
}

// parse validates one block's checksum and returns its header.
func (b *bodies) parse(blk []byte) (blockID, error) {
	if len(blk) != blockSize {
		return blockID{}, fmt.Errorf("block has %d bytes, want %d", len(blk), blockSize)
	}
	if m := binary.LittleEndian.Uint32(blk[0:]); m != blockMagic {
		return blockID{}, fmt.Errorf("bad block magic %#x", m)
	}
	k := binary.LittleEndian.Uint32(blk[24:])
	if k >= numBodies {
		return blockID{}, fmt.Errorf("bad body index %d", k)
	}
	body := crc32.Checksum(blk[hdrSize:], castagnoli)
	want := binary.LittleEndian.Uint32(blk[28:])
	if got := crc32.Checksum(blk[:28], castagnoli) ^ body; got != want {
		return blockID{}, fmt.Errorf("block checksum %#x, header says %#x", got, want)
	}
	if body != b.crc[k] {
		return blockID{}, fmt.Errorf("block body does not match body %d", k)
	}
	return blockID{
		file:   binary.LittleEndian.Uint32(blk[4:]),
		block:  binary.LittleEndian.Uint32(blk[8:]),
		writer: binary.LittleEndian.Uint32(blk[12:]),
		seq:    binary.LittleEndian.Uint64(blk[16:]),
	}, nil
}

// check validates a block and that it belongs at (file, block).
func (b *bodies) check(blk []byte, file, block uint32) (blockID, error) {
	id, err := b.parse(blk)
	if err != nil {
		return id, fmt.Errorf("file %d block %d: %w", file, block, err)
	}
	if id.file != file || id.block != block {
		return id, fmt.Errorf("file %d block %d holds the block of file %d block %d", file, block, id.file, id.block)
	}
	return id, nil
}
