package main

import (
	"math"
	"math/rand"
)

// opKind names one call (or, for share-handoff, one handoff).
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opAppend
	opGetattr
	opLookup
	opCreate // CREATE then REMOVE of a fresh name
	opHandoff
	opSetattr // logged after an APPEND, never generated
)

// op is one pre-generated operation. Its fields mean, per kind:
// file is the target file; arg is the block (wire-small), the domain
// (share-handoff) or the index of the fresh name (create).
type op struct {
	kind opKind
	file uint32
	arg  uint32
}

// laneRand gives each lane of a workload its own seeded stream.
func laneRand(seed int64, workload string, lane int) *rand.Rand {
	h := int64(1469598103934665603)
	for i := 0; i < len(workload); i++ {
		h = (h ^ int64(workload[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h + int64(lane)*7919))
}

// zipfPicker draws files with zipf s over n files; which files are hot
// is a fixed permutation shared by all lanes and all seeds.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipf(r *rand.Rand, s float64, perm []int) *zipfPicker {
	return &zipfPicker{z: rand.NewZipf(r, s, 1, uint64(len(perm)-1)), perm: perm}
}

func (z *zipfPicker) next() uint32 { return uint32(z.perm[z.z.Uint64()]) }

// hotness is a fixed order of n files. It does not depend on the seed:
// which files are hot (or big) moves the figures by several percent, so
// the seed varies only the op sequences and payloads.
func hotness(workload string, n int) []int {
	return laneRand(0, workload, -1).Perm(n)
}

// wireOps generates one wire-small lane: 20% APPEND, 30% READ, 15%
// WRITE, 20% GETATTR, 10% LOOKUP and 5% CREATE-then-REMOVE, files by
// zipf 1.1. READ and WRITE hit one of the first four blocks, which
// truncation never removes. It returns the ops and the count of fresh
// names the lane's creates use.
func wireOps(seed int64, lane, files, n int) ([]op, int) {
	r := laneRand(seed, "wire-small", lane)
	z := newZipf(r, 1.1, hotness("wire-small", files))
	ops := make([]op, n)
	creates := 0
	for i := range ops {
		f := z.next()
		switch u := r.Intn(100); {
		case u < 20:
			ops[i] = op{kind: opAppend, file: f}
		case u < 50:
			ops[i] = op{kind: opRead, file: f, arg: uint32(r.Intn(wireBaseBlocks))}
		case u < 65:
			ops[i] = op{kind: opWrite, file: f, arg: uint32(r.Intn(wireBaseBlocks))}
		case u < 85:
			ops[i] = op{kind: opGetattr, file: f}
		case u < 95:
			ops[i] = op{kind: opLookup, file: f}
		default:
			ops[i] = op{kind: opCreate, file: f, arg: uint32(creates)}
			creates++
		}
	}
	return ops, creates
}

// shareOps generates one share-handoff lane: it owns the files in
// owned, alternates domains op by op, and always hands a file to the
// domain that did not write it last (lastWriter gives the preload's
// writer of each file), so every op is an ownership transfer.
func shareOps(seed int64, lane int, owned []uint32, lastWriter func(uint32) uint32, n int) []op {
	r := laneRand(seed, "share-handoff", lane)
	var pool [2][]uint32 // pool[d]: files domain d wrote last
	for _, f := range owned {
		d := lastWriter(f)
		pool[d] = append(pool[d], f)
	}
	ops := make([]op, n)
	dom := uint32(0)
	if len(pool[1]) > len(pool[0]) {
		dom = 1 // start where there is more to take over
	}
	for i := range ops {
		from := &pool[1-dom]
		if len(*from) == 0 {
			dom = 1 - dom
			from = &pool[1-dom]
		}
		j := r.Intn(len(*from))
		f := (*from)[j]
		(*from)[j] = (*from)[len(*from)-1]
		*from = (*from)[:len(*from)-1]
		pool[dom] = append(pool[dom], f)
		ops[i] = op{kind: opHandoff, file: f, arg: dom}
		dom = 1 - dom
	}
	return ops
}

// shareSizes gives the share-handoff file sizes, log-uniform from 4 KiB
// to 1 MiB in whole blocks: evenly spaced quantiles of that
// distribution, dealt out to files in a fixed shuffled order. Like the
// popularity order, they do not depend on the seed.
func shareSizes(files int) []int {
	order := hotness("share-handoff-sizes", files)
	sizes := make([]int, files)
	for i := range sizes {
		q := (float64(order[i]) + 0.5) / float64(files)
		sizes[i] = int(math.Round(math.Exp2(q*8))) * blockSize
	}
	return sizes
}
