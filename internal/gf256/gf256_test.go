package gf256

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMulMatchesReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			got := Mul(byte(a), byte(b))
			want := MulSlow(byte(a), byte(b))
			if got != want {
				t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulTableMatchesReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := mulTable[a][b], MulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("mulTable[%d][%d] = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestMulAddMatchesReference checks MulAdd against MulSlow for every
// coefficient and every length from 0 to 17: empty slices, tail-only
// lengths, one and two unrolled blocks with and without a tail. dst starts
// with random bytes, so the test also pins that MulAdd accumulates (XORs
// into dst) rather than overwriting it, and that c = 0 leaves dst as it is.
func TestMulAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 256; c++ {
		for n := 0; n <= 17; n++ {
			src := make([]byte, n)
			dst := make([]byte, n)
			rng.Read(src)
			rng.Read(dst)
			want := make([]byte, n)
			for i := range want {
				want[i] = dst[i] ^ MulSlow(byte(c), src[i])
			}
			MulAdd(byte(c), dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulAdd(c=%d, len=%d) = %x, want %x", c, n, dst, want)
			}
		}
	}
}

// TestMulAddReadsOnlyDstLen: a longer src contributes only its first
// len(dst) bytes, and dst is never written past its length.
func TestMulAddReadsOnlyDstLen(t *testing.T) {
	for n := 0; n <= 17; n++ {
		backing := bytes.Repeat([]byte{0xAA}, n+4)
		dst := backing[:n]
		src := make([]byte, n+9)
		for i := range src {
			src[i] = byte(i + 1)
		}
		MulAdd(0x57, dst, src)
		for i := 0; i < n; i++ {
			if want := 0xAA ^ MulSlow(0x57, src[i]); dst[i] != want {
				t.Fatalf("len %d: dst[%d] = %#x, want %#x", n, i, dst[i], want)
			}
		}
		for i := n; i < len(backing); i++ {
			if backing[i] != 0xAA {
				t.Fatalf("len %d: wrote past dst at %d", n, i)
			}
		}
	}
}

func TestKnownProducts(t *testing.T) {
	// Classic AES test vectors for GF(2^8) under 0x11B.
	tests := []struct {
		a, b, want byte
	}{
		{0x57, 0x83, 0xC1},
		{0x57, 0x13, 0xFE},
		{0x02, 0x87, 0x15},
		{0x01, 0xFF, 0xFF},
		{0x00, 0xAB, 0x00},
	}
	for _, tt := range tests {
		if got := Mul(tt.a, tt.b); got != tt.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAddIsXor(t *testing.T) {
	if Add(0x57, 0x83) != 0xD4 {
		t.Errorf("Add(0x57, 0x83) = %#x, want 0xD4", Add(0x57, 0x83))
	}
	prop := func(a, b byte) bool {
		return Add(a, b) == a^b && Sub(a, b) == a^b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldAxioms(t *testing.T) {
	t.Run("multiplicative commutativity", func(t *testing.T) {
		prop := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("multiplicative associativity", func(t *testing.T) {
		prop := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("distributivity", func(t *testing.T) {
		prop := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("multiplicative identity", func(t *testing.T) {
		prop := func(a byte) bool { return Mul(a, 1) == a }
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("additive identity and inverse", func(t *testing.T) {
		prop := func(a byte) bool { return Add(a, 0) == a && Add(a, a) == 0 }
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
}

func TestInv(t *testing.T) {
	if Inv(0) != 0 {
		t.Error("Inv(0) must be 0 by convention")
	}
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Inv(byte(a))); got != 1 {
			t.Fatalf("a·Inv(a) = %d for a = %d, want 1", got, a)
		}
	}
}

func TestDiv(t *testing.T) {
	if Div(5, 0) != 0 {
		t.Error("Div by zero must return 0")
	}
	if Div(0, 7) != 0 {
		t.Error("Div of zero must return 0")
	}
	prop := func(a, b byte) bool {
		if b == 0 {
			return Div(a, b) == 0
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPow(t *testing.T) {
	tests := []struct {
		a    byte
		e    int
		want byte
	}{
		{0, 0, 1},
		{0, 5, 0},
		{1, 100, 1},
		{2, 1, 2},
		{2, 8, 0x1B}, // x^8 reduces to the polynomial tail
		{3, 255, 1},  // group order
	}
	for _, tt := range tests {
		if got := Pow(tt.a, tt.e); got != tt.want {
			t.Errorf("Pow(%d, %d) = %#x, want %#x", tt.a, tt.e, got, tt.want)
		}
	}
	// Pow must agree with repeated multiplication.
	for a := 0; a < 256; a += 7 {
		acc := byte(1)
		for e := 0; e < 20; e++ {
			if got := Pow(byte(a), e); got != acc {
				t.Fatalf("Pow(%d, %d) = %d, want %d", a, e, got, acc)
			}
			acc = Mul(acc, byte(a))
		}
	}
}

// powRef is an independent reference for Pow: repeated MulSlow for e ≥ 0,
// and the Inv-based group identity a^(-e) = (a^-1)^e for e < 0.
func powRef(a byte, e int) byte {
	if e == 0 {
		return 1 // x⁰ = 1, including 0⁰ (empty product)
	}
	if a == 0 {
		return 0 // 0^e = 0 for e > 0; e < 0 is division by zero → 0 by convention
	}
	if e < 0 {
		return powRef(Inv(a), -e)
	}
	acc := byte(1)
	for i := 0; i < e; i++ {
		acc = MulSlow(acc, a)
	}
	return acc
}

// TestPowEdgeGrid drives Pow over every base × an exponent edge set chosen to
// straddle the group order (255), its multiples, zero, and negatives — the
// full a × e grid the doc contract promises: Pow(x, 0) = 1 including
// Pow(0, 0); Pow(a, e) = a^(e mod 255) for a ≠ 0; Pow(0, e<0) = 0.
func TestPowEdgeGrid(t *testing.T) {
	exponents := []int{
		-511, -510, -509, -256, -255, -254, -128, -3, -2, -1,
		0, 1, 2, 3, 127, 128, 253, 254, 255, 256, 257, 509, 510, 511,
	}
	for a := 0; a < 256; a++ {
		for _, e := range exponents {
			got := Pow(byte(a), e)
			want := powRef(byte(a), e)
			if got != want {
				t.Fatalf("Pow(%d, %d) = %#x, want %#x", a, e, got, want)
			}
		}
	}
	// Spot-check the documented identities directly.
	for a := 1; a < 256; a++ {
		if Pow(byte(a), -1) != Inv(byte(a)) {
			t.Fatalf("Pow(%d, -1) != Inv(%d)", a, a)
		}
		if Pow(byte(a), 255) != 1 {
			t.Fatalf("Pow(%d, 255) != 1", a)
		}
		if Pow(byte(a), 256) != byte(a) {
			t.Fatalf("Pow(%d, 256) != %d", a, a)
		}
	}
	if Pow(0, 0) != 1 {
		t.Fatal("Pow(0, 0) must be 1: x⁰ is the empty product")
	}
}

func TestEvalPoly(t *testing.T) {
	// p(x) = 5 + 3x + x^2 over GF(2^8).
	coeffs := []byte{5, 3, 1}
	if got := EvalPoly(coeffs, 0); got != 5 {
		t.Errorf("p(0) = %d, want 5", got)
	}
	want := Add(Add(5, Mul(3, 2)), Mul(2, 2))
	if got := EvalPoly(coeffs, 2); got != want {
		t.Errorf("p(2) = %d, want %d", got, want)
	}
	if got := EvalPoly(nil, 9); got != 0 {
		t.Errorf("empty poly = %d, want 0", got)
	}
}

// interpolate evaluates at x the polynomial through (xs[i], ys[i]) via
// LagrangeBasis.
func interpolate(xs, ys []byte, x byte) (byte, bool) {
	basis := make([]byte, len(xs))
	if !LagrangeBasis(basis, xs, x) {
		return 0, false
	}
	var y byte
	for i, c := range basis {
		y = Add(y, Mul(c, ys[i]))
	}
	return y, true
}

func TestInterpolateRecoversConstantTerm(t *testing.T) {
	coeffs := []byte{0xA7, 0x14, 0x99} // degree 2, secret 0xA7
	xs := []byte{1, 2, 3}
	ys := make([]byte, len(xs))
	for i, x := range xs {
		ys[i] = EvalPoly(coeffs, x)
	}
	got, ok := interpolate(xs, ys, 0)
	if !ok || got != 0xA7 {
		t.Fatalf("interpolate at 0 = %#x, %v; want 0xA7, true", got, ok)
	}
}

func TestInterpolateRejectsBadInput(t *testing.T) {
	tests := []struct {
		name     string
		xs       []byte
		basisLen int
		x        byte
	}{
		{"empty", nil, 0, 0},
		{"length mismatch", []byte{1, 2}, 1, 0},
		{"zero x", []byte{0, 1}, 2, 0},
		{"point at target", []byte{1, 5}, 2, 5},
		{"duplicate x", []byte{2, 2}, 2, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if LagrangeBasis(make([]byte, tt.basisLen), tt.xs, tt.x) {
				t.Error("LagrangeBasis accepted invalid input")
			}
		})
	}
}

// TestInterpolateProperty: for random polynomials of random degree, any
// d+1 distinct evaluation points recover the constant term and the value at
// any other point.
func TestInterpolateProperty(t *testing.T) {
	prop := func(secret byte, rest []byte, perm uint, target byte) bool {
		degree := len(rest) % 8
		coeffs := append([]byte{secret}, rest[:degree]...)
		// Pick degree+1 distinct non-zero xs, offset by perm for variety.
		xs := make([]byte, degree+1)
		ys := make([]byte, degree+1)
		for i := range xs {
			xs[i] = byte(1 + (int(perm%255)+i*17)%255)
		}
		if hasDup(xs) {
			return true // skip degenerate sample
		}
		for i, x := range xs {
			ys[i] = EvalPoly(coeffs, x)
		}
		if got, ok := interpolate(xs, ys, 0); !ok || got != secret {
			return false
		}
		got, ok := interpolate(xs, ys, target)
		if slices.Contains(xs, target) {
			return !ok
		}
		return ok && got == EvalPoly(coeffs, target)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func hasDup(xs []byte) bool {
	seen := map[byte]bool{}
	for _, x := range xs {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

func BenchmarkMulAdd(b *testing.B) {
	src := make([]byte, 64<<10)
	dst := make([]byte, len(src))
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulAdd(0x8E, dst, src)
	}
}
