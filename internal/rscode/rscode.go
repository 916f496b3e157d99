// Package rscode implements a systematic Reed–Solomon erasure code over
// GF(2^8) (internal/gf256), the coding substrate for AVID-style coded
// reliable broadcast (internal/rbc's coded mode).
//
// A body of L bytes is striped column-wise into k data shards of
// ⌈L/k⌉ bytes each (zero-padded), and extended to n total shards by
// evaluating, for every byte column, the unique degree-(k−1) polynomial
// through the k data points. Shard i lives at evaluation point x = i+1
// (x = 0 is reserved: it would leak a raw interpolation target), so the
// code is systematic — shards 0..k−1 are the body's bytes verbatim, and
// any k of the n shards reconstruct every column by Lagrange
// interpolation. n is capped at 255 by the field size.
//
// Encoding is one shard at a time: Shard(dst, body, i) yields shard i
// alone, so a caller that only hashes each shard (coded RBC's re-encode
// check) needs one shard-sized buffer, never a whole codeword. A data shard
// wholly inside the body is a subslice of it; the padded last data shard
// and every parity shard are written into dst.
//
// A parity shard costs k multiply-accumulate passes over a shard (one
// gf256.MulAdd per data shard); Reconstruct costs k passes per missing data
// shard. The Lagrange coefficients are computed once per shard, outside the
// byte loop.
package rscode

import (
	"errors"
	"fmt"

	"repro/internal/gf256"
)

// Code is an (n, k) systematic Reed–Solomon code: k data shards, n total.
// It is immutable after New and safe for concurrent use.
type Code struct {
	n, k int
	// parityBasis[p][d] is the Lagrange coefficient mapping data shard d to
	// parity shard p (evaluation at x = k+p+1 of the basis polynomial that
	// is 1 at x = d+1 and 0 at the other data points). Precomputed once so
	// Shard is pure table arithmetic.
	parityBasis [][]byte
}

// Errors reported by New and Reconstruct.
var (
	ErrBadParams    = errors.New("rscode: invalid code parameters")
	ErrBadShards    = errors.New("rscode: malformed shards")
	ErrTooFewShards = errors.New("rscode: not enough shards to decode")
)

// New constructs an (n, k) code. It requires 1 ≤ k ≤ n ≤ 255.
func New(n, k int) (*Code, error) {
	if k < 1 || n < k || n > 255 {
		return nil, fmt.Errorf("%w: n=%d k=%d (need 1 ≤ k ≤ n ≤ 255)", ErrBadParams, n, k)
	}
	c := &Code{n: n, k: k}
	if n > k {
		var pts [255]byte
		data := pts[:k]
		for d := range data {
			data[d] = point(d)
		}
		c.parityBasis = make([][]byte, n-k)
		for p := range c.parityBasis {
			c.parityBasis[p] = make([]byte, k)
			if !gf256.LagrangeBasis(c.parityBasis[p], data, point(k+p)) {
				panic("rscode: data points not distinct from parity points")
			}
		}
	}
	return c, nil
}

// N returns the total number of shards.
func (c *Code) N() int { return c.n }

// K returns the number of data shards (the decode threshold).
func (c *Code) K() int { return c.k }

// point maps shard index i (0-based) to its field evaluation point.
func point(i int) byte { return byte(i + 1) }

// ShardLen returns the per-shard byte length for a body of bodyLen bytes:
// ⌈bodyLen/k⌉, and 1 for an empty body so every shard is non-empty on the
// wire (an empty broadcast still needs a frame to vote on).
func (c *Code) ShardLen(bodyLen int) int {
	if bodyLen <= 0 {
		return 1
	}
	return (bodyLen + c.k - 1) / c.k
}

// Shard returns shard i (0 ≤ i < n) of body's codeword, ShardLen(len(body))
// bytes long. A data shard that lies wholly inside body is returned as a
// subslice of body (capacity capped at its length), with no copy; every
// other shard — the zero-padded last data shard, the all-padding data
// shards past the body, and the parity shards — is written into dst, which
// is grown only if its capacity is below ShardLen. The result therefore
// aliases either body or dst: callers reusing dst across calls must keep
// their own buffer, never adopt the returned slice as the next dst.
func (c *Code) Shard(dst, body []byte, i int) []byte {
	shardLen := c.ShardLen(len(body))
	lo := i * shardLen
	if i < c.k && lo+shardLen <= len(body) {
		return body[lo : lo+shardLen : lo+shardLen]
	}
	if cap(dst) < shardLen {
		dst = make([]byte, shardLen)
	}
	dst = dst[:shardLen]
	if i < c.k {
		n := copy(dst, body[min(lo, len(body)):])
		clear(dst[n:])
		return dst
	}
	clear(dst)
	// The padding past len(body) is zero and contributes nothing, so the
	// short last data slice accumulates into a prefix of dst.
	for d, coef := range c.parityBasis[i-c.k] {
		lo := d * shardLen
		if lo >= len(body) {
			break
		}
		data := body[lo:min(lo+shardLen, len(body))]
		gf256.MulAdd(coef, dst[:len(data)], data)
	}
	return dst
}

// Reconstruct recovers the first bodyLen bytes of the original body from any
// k shards. indices[i] is the 0-based shard index of shards[i]; indices must
// be distinct and in [0, n), shards equal-length and non-empty, and bodyLen
// at most k·shardLen. Extra shards beyond the first k usable are ignored.
func (c *Code) Reconstruct(indices []int, shards [][]byte, bodyLen int) ([]byte, error) {
	if len(indices) != len(shards) {
		return nil, fmt.Errorf("%w: %d indices for %d shards", ErrBadShards, len(indices), len(shards))
	}
	if len(shards) < c.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(shards), c.k)
	}
	// Select the first k distinct valid shards (mirrors shamir.Reconstruct's
	// scan: a malformed entry is skipped, not fatal).
	useIdx := make([]int, 0, c.k)
	useShard := make([][]byte, 0, c.k)
	seen := make(map[int]bool, c.k)
	shardLen := 0
	for i, idx := range indices {
		if len(useIdx) == c.k {
			break
		}
		if idx < 0 || idx >= c.n || seen[idx] || len(shards[i]) == 0 {
			continue
		}
		if shardLen == 0 {
			shardLen = len(shards[i])
		} else if len(shards[i]) != shardLen {
			continue
		}
		seen[idx] = true
		useIdx = append(useIdx, idx)
		useShard = append(useShard, shards[i])
	}
	if len(useIdx) < c.k {
		return nil, fmt.Errorf("%w: only %d of %d shards usable (need %d)",
			ErrTooFewShards, len(useIdx), len(shards), c.k)
	}
	if bodyLen < 0 || bodyLen > c.k*shardLen {
		return nil, fmt.Errorf("%w: bodyLen %d exceeds %d×%d", ErrBadShards, bodyLen, c.k, shardLen)
	}
	body := make([]byte, bodyLen)
	// Fast path: every needed data shard is present verbatim (systematic).
	systematic := true
	dataAt := make([][]byte, c.k)
	for i, idx := range useIdx {
		if idx < c.k {
			dataAt[idx] = useShard[i]
		}
	}
	for d := 0; d < c.k; d++ {
		if dataAt[d] == nil && d*shardLen < bodyLen {
			systematic = false
			break
		}
	}
	if systematic {
		for d := 0; d < c.k && d*shardLen < bodyLen; d++ {
			copy(body[d*shardLen:min((d+1)*shardLen, bodyLen)], dataAt[d])
		}
		return body, nil
	}
	// General path: for each missing data shard d, interpolate the column
	// polynomials at x = d+1 from the k available points. Hoist the Lagrange
	// coefficients out of the byte loop.
	var ptsBuf, basisBuf [255]byte
	pts, basis := ptsBuf[:c.k], basisBuf[:c.k]
	for i, idx := range useIdx {
		pts[i] = point(idx)
	}
	for d := 0; d < c.k; d++ {
		if d*shardLen >= bodyLen {
			break
		}
		dst := body[d*shardLen : min((d+1)*shardLen, bodyLen)]
		if dataAt[d] != nil {
			copy(dst, dataAt[d])
			continue
		}
		if !gf256.LagrangeBasis(basis, pts, point(d)) {
			panic("rscode: selected shard points not distinct")
		}
		for i, coef := range basis {
			gf256.MulAdd(coef, dst, useShard[i])
		}
	}
	return body, nil
}
