package rng

// Alias is a Walker/Vose alias table for O(1) sampling from a fixed
// discrete distribution. It is used on the census generator's hot path,
// where millions of categorical draws are made per dataset.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from the given non-negative weights,
// which need not be normalized. It panics if weights is empty, contains a
// negative or non-finite entry, or sums to zero.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("rng: NewAlias with empty weights")
	}
	var total float64
	for _, w := range weights {
		if !(w >= 0) || w != w {
			panic("rng: NewAlias with negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: NewAlias with zero total weight")
	}
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Vose's algorithm: scale weights so the mean is 1, then pair each
	// under-full cell with an over-full one.
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Remaining cells are (up to rounding) exactly full.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Sample draws one category index using r.
func (a *Alias) Sample(r *RNG) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Categorical draws one index from the (not necessarily normalized)
// weights by linear scan. Prefer NewAlias for repeated sampling from the
// same weights.
func (r *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical with zero total weight")
	}
	u := r.Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}
