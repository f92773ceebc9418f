package rngutil

import "math/rand"

// alfg is math/rand's Go 1 generator — an additive lagged Fibonacci
// generator over 607 64-bit registers with tap 273 (Mitchell and Reeds) —
// reimplemented as a concrete type. It yields exactly the stream
// rand.NewSource(seed) yields for every seed, which keeps every seeded
// table in the repository valid, but a draw is a direct, inlinable call
// instead of a hop through the rand.Source interface, and seeding is
// division-free and pipelined instead of an 1841-step serial chain.
type alfg struct {
	// feed is the register the last step wrote. math/rand also keeps a tap
	// cursor, but the two move in lockstep, so the tap is always the
	// register alfgTap above the feed.
	feed int
	vec  [alfgLen]uint64
}

const (
	alfgLen  = 607
	alfgTap  = 273
	alfgMask = 1<<63 - 1

	// Seeding runs the Park–Miller generator x ← 48271·x mod (2³¹−1):
	// seedWarmup discarded steps, then three values per register.
	lcgMod     = 1<<31 - 1
	lcgMul     = 48271
	seedWarmup = 20
	// zeroSeed replaces a seed ≡ 0 mod lcgMod, which would stall the chain.
	zeroSeed = 89482311
)

var (
	// lcgPow[i][j] = lcgMul^(seedWarmup+1+3i+j) mod lcgMod: register i's
	// j-th seed-chain value is x₀·lcgPow[i][j], so no term waits on another.
	lcgPow [alfgLen][3]uint64
	// cooked is math/rand's rngCooked table, the constant each seeded
	// register is XORed with. It is derived from math/rand at init rather
	// than copied; see deriveCooked.
	cooked [alfgLen]uint64
)

func init() {
	x := uint64(1)
	for k := -seedWarmup; k < 3*alfgLen; k++ {
		x = mulmod(x, lcgMul)
		if k >= 0 {
			lcgPow[k/3][k%3] = x
		}
	}
	deriveCooked()
}

// deriveCooked recovers math/rand's cooked table from its public stream.
// From a freshly seeded register, the first alfgLen outputs overwrite every
// register slot exactly once, so those outputs are the whole register after
// alfgLen steps. Running the steps backwards (each step added one slot into
// another, so subtract it out) restores the register as seeded, and XORing
// out seed 1's Park–Miller terms leaves the cooked values.
func deriveCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var g alfg
	g.seed(1) // cooked is still zero, so this is the bare Park–Miller part
	terms := g.vec
	for i := 0; i < alfgLen; i++ {
		g.Uint64() // advance the cursors; the slot written is overwritten
		g.vec[g.feed] = src.Uint64()
	}
	for i := 0; i < alfgLen; i++ {
		g.vec[g.feed] -= g.vec[(g.feed+alfgTap)%alfgLen]
		g.feed = (g.feed + 1) % alfgLen
	}
	for i := range cooked {
		cooked[i] = g.vec[i] ^ terms[i]
	}
}

// mulmod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1). Since 2³¹ ≡ 1 mod
// 2³¹−1, folding the high bits onto the low ones reduces without a
// division; the fold is below 2·(2³¹−1) and, the modulus being prime, never
// a multiple of it, so one conditional subtraction finishes.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// seed positions g at the start of rand.NewSource(seed)'s stream.
func (g *alfg) seed(seed int64) {
	g.feed = alfgLen - alfgTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range g.vec {
		p := &lcgPow[i]
		g.vec[i] = mulmod(x, p[0])<<40 ^ mulmod(x, p[1])<<20 ^ mulmod(x, p[2]) ^ cooked[i]
	}
}

// Uint64 returns the next 64-bit value of the stream: the feed cursor
// steps down one register (wrapping) and adds the tap register into it.
func (g *alfg) Uint64() uint64 {
	feed := g.feed - 1
	if feed < 0 {
		feed += alfgLen
	}
	g.feed = feed
	tap := feed + alfgTap
	if tap >= alfgLen {
		tap -= alfgLen
	}
	g.vec[feed] += g.vec[tap]
	return g.vec[feed]
}
