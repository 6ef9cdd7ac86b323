package main

import (
	"fmt"
	"hash/fnv"
)

// setDigest is an order-independent digest of a clique family: each clique
// (members ascending, as every enumeration path emits them) is hashed on
// its own, and the hashes are summed. Addition commutes, so the engine, the
// parallel pipeline, the traced mirror and the compiled index can be
// compared whatever order they produce cliques in.
func setDigest(cliques [][]int32) string {
	var sum uint64
	for _, c := range cliques {
		sum += cliqueHash(c)
	}
	return fmt.Sprintf("%016x", sum)
}

func cliqueHash(c []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range c {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	// splitmix64 finaliser: FNV alone leaves sums of similar cliques
	// correlated in the low bits.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// streamDigest is the ordered FNV-1a digest mcebench -smoke records for the
// dense scenario: every member as 4 little-endian bytes, each clique closed
// by 0xffffffff. It pins the engine's emission order, which setDigest
// deliberately ignores.
func streamDigest(cliques [][]int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range cliques {
		for _, v := range c {
			buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(buf[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
