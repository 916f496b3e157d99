package rscode

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

func mustCode(t *testing.T, n, k int) *Code {
	t.Helper()
	c, err := New(n, k)
	if err != nil {
		t.Fatalf("New(%d, %d): %v", n, k, err)
	}
	return c
}

// encodeAll returns all n shards of body's codeword, each from Shard into a
// fresh buffer.
func encodeAll(c *Code, body []byte) [][]byte {
	shards := make([][]byte, c.n)
	for i := range shards {
		shards[i] = c.Shard(nil, body, i)
	}
	return shards
}

// splitRef is the original whole-codeword encoder, kept as the reference
// Shard must match: per-byte gf256.Mul over zero-padded copies of the data
// shards.
func splitRef(c *Code, body []byte) [][]byte {
	shardLen := c.ShardLen(len(body))
	shards := make([][]byte, c.n)
	for i := range shards {
		shards[i] = make([]byte, shardLen)
	}
	for d := 0; d < c.k; d++ {
		copy(shards[d], body[min(d*shardLen, len(body)):min((d+1)*shardLen, len(body))])
	}
	for p, basis := range c.parityBasis {
		out := shards[c.k+p]
		for d := 0; d < c.k; d++ {
			for b := 0; b < shardLen; b++ {
				out[b] = gf256.Add(out[b], gf256.Mul(shards[d][b], basis[d]))
			}
		}
	}
	return shards
}

// overlaps reports whether s starts anywhere in body's backing array.
func overlaps(s, body []byte) bool {
	if len(s) == 0 {
		return false
	}
	full := body[:cap(body)]
	for i := range full {
		if &s[0] == &full[i] {
			return true
		}
	}
	return false
}

func TestNewRejectsBadParams(t *testing.T) {
	for _, tt := range []struct{ n, k int }{
		{0, 0}, {4, 0}, {4, -1}, {3, 4}, {256, 4}, {300, 300},
	} {
		if _, err := New(tt.n, tt.k); !errors.Is(err, ErrBadParams) {
			t.Errorf("New(%d, %d) error = %v, want ErrBadParams", tt.n, tt.k, err)
		}
	}
	// Degenerate but legal corners.
	for _, tt := range []struct{ n, k int }{{1, 1}, {255, 255}, {255, 1}} {
		if _, err := New(tt.n, tt.k); err != nil {
			t.Errorf("New(%d, %d): %v", tt.n, tt.k, err)
		}
	}
}

func TestSystematicPrefix(t *testing.T) {
	c := mustCode(t, 7, 3)
	body := []byte("systematic prefix check!")
	shards := encodeAll(c, body)
	if len(shards) != 7 {
		t.Fatalf("got %d shards", len(shards))
	}
	sl := c.ShardLen(len(body))
	for d := 0; d < 3; d++ {
		lo := d * sl
		hi := min((d+1)*sl, len(body))
		want := make([]byte, sl)
		copy(want, body[lo:hi])
		if !bytes.Equal(shards[d], want) {
			t.Errorf("data shard %d = %x, want %x", d, shards[d], want)
		}
	}
}

func TestRoundTripAllKSubsets(t *testing.T) {
	const n, k = 6, 3
	c := mustCode(t, n, k)
	body := []byte("any k of n shards reconstruct the body")
	shards := encodeAll(c, body)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for l := j + 1; l < n; l++ {
				idxs := []int{i, j, l}
				sub := [][]byte{shards[i], shards[j], shards[l]}
				got, err := c.Reconstruct(idxs, sub, len(body))
				if err != nil {
					t.Fatalf("subset %v: %v", idxs, err)
				}
				if !bytes.Equal(got, body) {
					t.Fatalf("subset %v reconstructed %q", idxs, got)
				}
			}
		}
	}
}

// TestShardsArePolynomialEvaluations cross-checks the encoder against an
// independent Pow-based reference: for every byte column, shard i must be
// the value at x = i+1 of the polynomial whose coefficients come from
// interpreting the data column as evaluations — equivalently, the column of
// shards must lie on a single degree-(k−1) polynomial. We verify via
// gf256.Pow by explicitly building the coefficient vector from the data
// points and evaluating Σ c_m·Pow(x, m) at every shard's point.
func TestShardsArePolynomialEvaluations(t *testing.T) {
	const n, k = 9, 4
	c := mustCode(t, n, k)
	rng := rand.New(rand.NewSource(99))
	body := make([]byte, 4*k+3)
	rng.Read(body)
	shards := encodeAll(c, body)
	sl := c.ShardLen(len(body))
	for col := 0; col < sl; col++ {
		// Solve for the degree-(k−1) coefficients through the data points
		// (point(d), shards[d][col]) by Gaussian elimination over GF(2^8).
		coeffs := solveVandermonde(t, k, func(d int) byte { return shards[d][col] })
		for i := 0; i < n; i++ {
			x := point(i)
			var want byte
			for m, cm := range coeffs {
				want = gf256.Add(want, gf256.Mul(cm, gf256.Pow(x, m)))
			}
			if shards[i][col] != want {
				t.Fatalf("col %d shard %d: %#x off-polynomial (want %#x)", col, i, shards[i][col], want)
			}
		}
	}
}

// solveVandermonde returns the coefficients of the degree-(k−1) polynomial
// with p(point(d)) = y(d), via row reduction of the Vandermonde system built
// with gf256.Pow (independent of the encoder's Lagrange machinery).
func solveVandermonde(t *testing.T, k int, y func(int) byte) []byte {
	t.Helper()
	// Augmented matrix rows: [x^0 x^1 ... x^(k-1) | y].
	rows := make([][]byte, k)
	for d := 0; d < k; d++ {
		row := make([]byte, k+1)
		for m := 0; m < k; m++ {
			row[m] = gf256.Pow(point(d), m)
		}
		row[k] = y(d)
		rows[d] = row
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if rows[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			t.Fatal("singular Vandermonde system")
		}
		rows[col], rows[pivot] = rows[pivot], rows[col]
		inv := gf256.Inv(rows[col][col])
		for m := col; m <= k; m++ {
			rows[col][m] = gf256.Mul(rows[col][m], inv)
		}
		for r := 0; r < k; r++ {
			if r == col || rows[r][col] == 0 {
				continue
			}
			f := rows[r][col]
			for m := col; m <= k; m++ {
				rows[r][m] = gf256.Add(rows[r][m], gf256.Mul(f, rows[col][m]))
			}
		}
	}
	coeffs := make([]byte, k)
	for d := 0; d < k; d++ {
		coeffs[d] = rows[d][k]
	}
	return coeffs
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		k := 1 + rng.Intn(n)
		c := mustCode(t, n, k)
		body := make([]byte, rng.Intn(64))
		rng.Read(body)
		shards := encodeAll(c, body)
		// Random k-subset in random order.
		perm := rng.Perm(n)[:k]
		idxs := make([]int, k)
		sub := make([][]byte, k)
		for i, p := range perm {
			idxs[i] = p
			sub[i] = shards[p]
		}
		got, err := c.Reconstruct(idxs, sub, len(body))
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d): %v", trial, n, k, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("trial %d (n=%d k=%d): mismatch", trial, n, k)
		}
	}
}

func TestEmptyBody(t *testing.T) {
	c := mustCode(t, 4, 2)
	shards := encodeAll(c, nil)
	for i, s := range shards {
		if len(s) != 1 {
			t.Fatalf("shard %d len = %d, want 1 (empty body still frames)", i, len(s))
		}
	}
	got, err := c.Reconstruct([]int{2, 3}, [][]byte{shards[2], shards[3]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("reconstructed %d bytes from empty body", len(got))
	}
}

func TestReconstructErrors(t *testing.T) {
	c := mustCode(t, 5, 3)
	body := []byte("errors")
	shards := encodeAll(c, body)
	t.Run("too few", func(t *testing.T) {
		_, err := c.Reconstruct([]int{0, 1}, shards[:2], len(body))
		if !errors.Is(err, ErrTooFewShards) {
			t.Errorf("error = %v, want ErrTooFewShards", err)
		}
	})
	t.Run("length mismatch", func(t *testing.T) {
		_, err := c.Reconstruct([]int{0, 1}, shards[:3], len(body))
		if !errors.Is(err, ErrBadShards) {
			t.Errorf("error = %v, want ErrBadShards", err)
		}
	})
	t.Run("duplicate index skipped then insufficient", func(t *testing.T) {
		_, err := c.Reconstruct([]int{0, 0, 0}, [][]byte{shards[0], shards[0], shards[0]}, len(body))
		if !errors.Is(err, ErrTooFewShards) {
			t.Errorf("error = %v, want ErrTooFewShards", err)
		}
	})
	t.Run("out of range index skipped", func(t *testing.T) {
		got, err := c.Reconstruct([]int{7, 0, 1, 2}, [][]byte{shards[0], shards[0], shards[1], shards[2]}, len(body))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, body) {
			t.Error("valid tail should have reconstructed")
		}
	})
	t.Run("oversized bodyLen", func(t *testing.T) {
		_, err := c.Reconstruct([]int{0, 1, 2}, shards[:3], 3*c.ShardLen(len(body))+1)
		if !errors.Is(err, ErrBadShards) {
			t.Errorf("error = %v, want ErrBadShards", err)
		}
	})
}

// shardCases yields every (code, body) pair the Shard tests cover: n ∈ {1,
// 4, 16} with a spread of k, and body lengths 0, 1, k−1, k·L−1 and k·L for a
// shard length L long enough to reach MulAdd's unrolled loop.
func shardCases(t *testing.T, fn func(c *Code, body []byte)) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const L = 19
	for _, n := range []int{1, 4, 16} {
		for _, k := range []int{1, (n + 1) / 2, n - n/3, n} {
			c := mustCode(t, n, k)
			for _, size := range []int{0, 1, k - 1, k*L - 1, k * L} {
				body := make([]byte, size)
				rng.Read(body)
				for i := range body {
					body[i] |= 1 // non-zero, so padding mistakes show
				}
				fn(c, body)
			}
		}
	}
}

func TestShardMatchesReference(t *testing.T) {
	shardCases(t, func(c *Code, body []byte) {
		want := splitRef(c, body)
		dst := make([]byte, 0, 3) // too small for most cases: Shard must grow it
		for i := 0; i < c.n; i++ {
			if got := c.Shard(nil, body, i); !bytes.Equal(got, want[i]) {
				t.Fatalf("n=%d k=%d len=%d shard %d = %x, want %x", c.n, c.k, len(body), i, got, want[i])
			}
			if got := c.Shard(dst, body, i); !bytes.Equal(got, want[i]) {
				t.Fatalf("n=%d k=%d len=%d shard %d via small dst = %x, want %x", c.n, c.k, len(body), i, got, want[i])
			}
		}
	})
}

// TestShardAliasing pins where Shard's result lives: whole data shards are
// subslices of body with capacity capped at the shard, while the padded
// data shard and every parity shard are written into dst.
func TestShardAliasing(t *testing.T) {
	shardCases(t, func(c *Code, body []byte) {
		sl := c.ShardLen(len(body))
		dst := make([]byte, sl)
		for i := 0; i < c.n; i++ {
			s := c.Shard(dst, body, i)
			whole := i < c.k && (i+1)*sl <= len(body)
			switch {
			case whole && !overlaps(s, body):
				t.Fatalf("n=%d k=%d len=%d: whole data shard %d copied", c.n, c.k, len(body), i)
			case whole && cap(s) != sl:
				t.Fatalf("n=%d k=%d len=%d: data shard %d cap %d, want %d", c.n, c.k, len(body), i, cap(s), sl)
			case !whole && overlaps(s, body):
				t.Fatalf("n=%d k=%d len=%d: shard %d aliases body", c.n, c.k, len(body), i)
			case !whole && &s[0] != &dst[0]:
				t.Fatalf("n=%d k=%d len=%d: shard %d not written into dst", c.n, c.k, len(body), i)
			}
		}
	})
}

// TestShardReusedDstLeavesBody runs every shard, twice over in interleaved
// order, through one dst: no call may write into body, which a caller
// adopting a data shard as its next dst would cause.
func TestShardReusedDstLeavesBody(t *testing.T) {
	shardCases(t, func(c *Code, body []byte) {
		orig := bytes.Clone(body)
		want := splitRef(c, body)
		dst := make([]byte, c.ShardLen(len(body)))
		for pass := 0; pass < 2; pass++ {
			for j := 0; j < c.n; j++ {
				i := (j*7 + pass) % c.n
				if got := c.Shard(dst, body, i); !bytes.Equal(got, want[i]) {
					t.Fatalf("n=%d k=%d len=%d pass %d: shard %d = %x, want %x", c.n, c.k, len(body), pass, i, got, want[i])
				}
				if !bytes.Equal(body, orig) {
					t.Fatalf("n=%d k=%d len=%d: Shard(%d) wrote into body", c.n, c.k, len(body), i)
				}
			}
		}
	})
}

// FuzzShardRoundTrip encodes every shard with Shard and reconstructs the
// body from the last k shards (parity-heavy: no systematic fast path unless
// k = n) and from a random k-subset.
func FuzzShardRoundTrip(f *testing.F) {
	f.Add(byte(15), byte(5), int64(1), []byte("any k of n shards reconstruct the body"))
	f.Add(byte(3), byte(0), int64(2), []byte{})
	f.Add(byte(0), byte(0), int64(3), []byte{0xFF})
	f.Fuzz(func(t *testing.T, nb, kb byte, seed int64, body []byte) {
		n := 1 + int(nb)%32
		k := 1 + int(kb)%n
		c := mustCode(t, n, k)
		shards := encodeAll(c, body)
		want := splitRef(c, body)
		for i := range shards {
			if !bytes.Equal(shards[i], want[i]) {
				t.Fatalf("n=%d k=%d: shard %d differs from the reference", n, k, i)
			}
		}
		last := make([]int, k)
		for i := range last {
			last[i] = n - k + i
		}
		perm := rand.New(rand.NewSource(seed)).Perm(n)[:k]
		for _, idxs := range [][]int{last, perm} {
			sub := make([][]byte, k)
			for i, idx := range idxs {
				sub[i] = shards[idx]
			}
			got, err := c.Reconstruct(idxs, sub, len(body))
			if err != nil {
				t.Fatalf("n=%d k=%d from %v: %v", n, k, idxs, err)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("n=%d k=%d from %v: reconstructed %x, want %x", n, k, idxs, got, body)
			}
		}
	})
}

// BenchmarkShardEncode encodes a whole 64 KiB codeword (n=16, k=6) into n
// reused buffers: the work the former whole-codeword encoder did, minus its
// allocation.
func BenchmarkShardEncode(b *testing.B) {
	c, _ := New(16, 6)
	body := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(body)
	dsts := make([][]byte, c.N())
	for i := range dsts {
		dsts[i] = make([]byte, c.ShardLen(len(body)))
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for it := 0; it < b.N; it++ {
		for i, dst := range dsts {
			c.Shard(dst, body, i)
		}
	}
}

// BenchmarkShardReencode is coded RBC's re-encode check at the bulk
// workload's shape: a 256 KiB body at n=16, k=6, every shard produced
// through one shard-sized buffer and hashed with SHA-256.
func BenchmarkShardReencode(b *testing.B) {
	c, _ := New(16, 6)
	body := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(body)
	buf := make([]byte, c.ShardLen(len(body)))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for it := 0; it < b.N; it++ {
		for i := 0; i < c.N(); i++ {
			sha256.Sum256(c.Shard(buf, body, i))
		}
	}
}

func BenchmarkReconstructParityHeavy(b *testing.B) {
	c, _ := New(16, 6)
	body := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(body)
	shards := encodeAll(c, body)
	// Worst case: all parity shards, no systematic fast path.
	idxs := []int{10, 11, 12, 13, 14, 15}
	sub := [][]byte{shards[10], shards[11], shards[12], shards[13], shards[14], shards[15]}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reconstruct(idxs, sub, len(body)); err != nil {
			b.Fatal(err)
		}
	}
}
