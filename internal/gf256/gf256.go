// Package gf256 implements arithmetic in the finite field GF(2^8) with the
// AES reduction polynomial x^8 + x^4 + x^3 + x + 1 (0x11B). It is the
// algebraic substrate for the Shamir secret sharing used by the Rabin-style
// common coin dealer (internal/shamir, internal/coin) and for the
// Reed–Solomon erasure code of coded reliable broadcast (internal/rscode).
//
// Scalar multiplication and inversion are table-driven via discrete
// logarithms with the generator 0x03. Bulk coding work goes through MulAdd,
// which computes dst[i] ^= c·src[i] from one row of a 64 KiB product table
// (mulTable[c][x] = c·x, built from the log/exp tables at package init):
// one lookup and one XOR per byte, with no zero tests, in a loop unrolled by
// eight so the compiler drops the bounds checks.
package gf256

// poly is the AES reduction polynomial (without the x^8 term, applied during
// reduction).
const poly = 0x1B

// generator 0x03 is a primitive element of GF(2^8) under poly.
const generator = 0x03

// tables holds the exp/log tables for the multiplicative group.
type tables struct {
	exp [512]byte // doubled so exp[log a + log b] needs no modular reduction
	log [256]byte
}

var _tables = buildTables()

// mulTable[c][x] = c·x: the full product table MulAdd streams through, one
// 256-byte row per coefficient.
var mulTable = buildMulTable()

func buildMulTable() *[256][256]byte {
	t := new([256][256]byte)
	for c := 1; c < 256; c++ {
		lc := int(_tables.log[c])
		for x := 1; x < 256; x++ {
			t[c][x] = _tables.exp[lc+int(_tables.log[x])]
		}
	}
	return t
}

func buildTables() *tables {
	t := &tables{}
	x := byte(1)
	for i := 0; i < 255; i++ {
		t.exp[i] = x
		t.log[x] = byte(i)
		x = mulSlow(x, generator)
	}
	for i := 255; i < 512; i++ {
		t.exp[i] = t.exp[i-255]
	}
	return t
}

// mulSlow is carry-less "Russian peasant" multiplication with reduction; it
// seeds the tables and serves as the reference implementation for tests.
func mulSlow(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= poly
		}
		b >>= 1
	}
	return p
}

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse, so Sub
// is the same operation.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a−b in GF(2^8) (identical to Add in characteristic 2).
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a·b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return _tables.exp[int(_tables.log[a])+int(_tables.log[b])]
}

// MulAdd computes dst[i] ^= c·src[i] for every i < len(dst): it adds c times
// src into dst, the multiply-accumulate step of Reed–Solomon encoding and
// interpolation. src must be at least len(dst) long; bytes past len(dst) are
// not read. c == 0 leaves dst unchanged.
func MulAdd(c byte, dst, src []byte) {
	if c == 0 {
		return
	}
	row := &mulTable[c]
	src = src[:len(dst)]
	for len(dst) >= 8 {
		d, s := dst[:8:8], src[:8:8]
		d[0] ^= row[s[0]]
		d[1] ^= row[s[1]]
		d[2] ^= row[s[2]]
		d[3] ^= row[s[3]]
		d[4] ^= row[s[4]]
		d[5] ^= row[s[5]]
		d[6] ^= row[s[6]]
		d[7] ^= row[s[7]]
		dst, src = dst[8:], src[8:]
	}
	for i, x := range src {
		dst[i] ^= row[x]
	}
}

// MulSlow exposes the reference multiplication for cross-checking in tests.
func MulSlow(a, b byte) byte { return mulSlow(a, b) }

// Inv returns the multiplicative inverse of a. Inv(0) returns 0; callers
// dividing by field elements must guard the zero case themselves (Div does).
func Inv(a byte) byte {
	if a == 0 {
		return 0
	}
	return _tables.exp[255-int(_tables.log[a])]
}

// Div returns a/b in GF(2^8), and 0 if b is 0 (no panic: protocol code must
// treat division by zero as a validation failure before reaching here).
func Div(a, b byte) byte {
	if b == 0 || a == 0 {
		return 0
	}
	return _tables.exp[int(_tables.log[a])+255-int(_tables.log[b])]
}

// Pow returns a^e in GF(2^8) with the convention Pow(x, 0) = 1, including
// Pow(0, 0) = 1 (x⁰ is the empty product; the Reed–Solomon generator-matrix
// path in internal/rscode evaluates x⁰ at arbitrary points, so this case is
// load-bearing, not pedantry).
//
// Negative exponents are defined through the multiplicative group of order
// 255: for a ≠ 0, Pow(a, e) = a^(e mod 255), so Pow(a, -1) == Inv(a) and
// Pow(a, -e) == Pow(Inv(a), e). Pow(0, e) with e < 0 would be a division by
// zero and returns 0, mirroring Div's convention (protocol code must treat
// it as a validation failure before reaching here).
func Pow(a byte, e int) byte {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	// The multiplicative group has order 255.
	le := (int(_tables.log[a]) * (e % 255)) % 255
	if le < 0 {
		le += 255
	}
	return _tables.exp[le]
}

// EvalPoly evaluates the polynomial with the given coefficients (constant
// term first) at x, using Horner's rule.
func EvalPoly(coeffs []byte, x byte) byte {
	var y byte
	for i := len(coeffs) - 1; i >= 0; i-- {
		y = Add(Mul(y, x), coeffs[i])
	}
	return y
}

// LagrangeBasis writes into basis the Lagrange coefficients at x over the
// points xs: basis[i] = Π_{j≠i} (x − xs[j]) / (xs[i] − xs[j]), so the value
// at x of the unique polynomial of degree < len(xs) through (xs[i], ys[i])
// is Σ basis[i]·ys[i]. It reports false, leaving basis unspecified, when xs
// is empty, basis is not len(xs) long, two points coincide, or a point
// equals x (for Shamir x = 0, and a share at 0 would be the secret itself).
func LagrangeBasis(basis, xs []byte, x byte) bool {
	if len(xs) == 0 || len(basis) != len(xs) {
		return false
	}
	for i, xi := range xs {
		if xi == x {
			return false
		}
		num, den := byte(1), byte(1)
		for j, xj := range xs {
			if j == i {
				continue
			}
			num = Mul(num, Sub(x, xj))
			den = Mul(den, Sub(xi, xj))
		}
		if den == 0 {
			return false
		}
		basis[i] = Div(num, den)
	}
	return true
}
