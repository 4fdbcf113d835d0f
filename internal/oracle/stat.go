package oracle

import "math"

// BinomialCDF returns P[X ≤ k] for X ~ Binomial(n, p): the p-value of
// "success rate ≥ p" after k successes in n independent runs.
func BinomialCDF(k, n int, p float64) float64 {
	var cdf float64
	for i := 0; i <= k; i++ {
		lc, _ := math.Lgamma(float64(n + 1))
		la, _ := math.Lgamma(float64(i + 1))
		lb, _ := math.Lgamma(float64(n - i + 1))
		cdf += math.Exp(lc - la - lb + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return cdf
}

// SameDistribution is the two-sample χ² test of homogeneity: a and b are
// histograms (counts per bin, bins in order) of two samples, and the
// result is the p-value of "both come from one distribution". Adjacent
// bins are pooled from the left until each pooled bin expects at least 5
// of each sample, so a sparse tail costs no validity; a histogram that
// pools to a single bin cannot be told apart and scores 1.
func SameDistribution(a, b []int) float64 {
	na, nb := 0, 0
	for _, x := range a {
		na += x
	}
	for _, x := range b {
		nb += x
	}
	if na == 0 || nb == 0 {
		return 1
	}
	fa := float64(na) / float64(na+nb)
	type bin struct{ a, b int }
	var bins []bin
	var cur bin
	for i := 0; i < max(len(a), len(b)); i++ {
		if i < len(a) {
			cur.a += a[i]
		}
		if i < len(b) {
			cur.b += b[i]
		}
		if t := float64(cur.a + cur.b); t*fa >= 5 && t*(1-fa) >= 5 {
			bins, cur = append(bins, cur), bin{}
		}
	}
	if len(bins) == 0 {
		return 1
	}
	bins[len(bins)-1].a += cur.a
	bins[len(bins)-1].b += cur.b
	var stat float64
	for _, bn := range bins {
		t := float64(bn.a + bn.b)
		ea, eb := t*fa, t*(1-fa)
		stat += (float64(bn.a)-ea)*(float64(bn.a)-ea)/ea + (float64(bn.b)-eb)*(float64(bn.b)-eb)/eb
	}
	return chiSquareSF(stat, len(bins)-1)
}

// chiSquareSF returns P[χ²_df ≥ x] in closed form: for even df the
// Poisson sum e^{−x/2}·Σ_{i<df/2} (x/2)^i/i!, for odd df erfc(√(x/2))
// plus the half-integer terms (x/2)^{i−½}/Γ(i+½). df = 0 is 1.
func chiSquareSF(x float64, df int) float64 {
	if df <= 0 || x <= 0 {
		return 1
	}
	var sum, term float64
	if df%2 == 0 {
		term = 1
		for i := 0; i < df/2; i++ {
			sum += term
			term *= x / 2 / float64(i+1)
		}
		return math.Exp(-x/2) * sum
	}
	term = math.Sqrt(2 * x / math.Pi)
	for i := 1; i <= df/2; i++ {
		sum += term
		term *= x / float64(2*i+1)
	}
	return math.Erfc(math.Sqrt(x/2)) + math.Exp(-x/2)*sum
}
