package dirpred

import (
	"zbp/internal/history"
	"zbp/internal/reuse"
	"zbp/internal/sat"
	"zbp/internal/zarch"
)

// Perceptron is the z15 neural auxiliary direction predictor (paper §V,
// patents US9442726/US9507598): a 16-row by 2-way table of 32 entries,
// each holding 17 signed weights. 2:1 virtualization maps the 34 GPV
// bits onto the 17 weights: each weight watches one of its two
// candidate history bits, and a poorly correlating weight is
// re-virtualized to the other candidate.
//
// An entry must earn its role: a new install carries a protection limit
// that shields it from replacement while it learns, and a usefulness
// counter that must exceed a global threshold before the perceptron
// becomes the direction provider.
type Perceptron struct {
	cfg PercConfig
	// entries is the table, row-major (index row*Ways+way). Every
	// entry's weights and sel are fixed windows into the flat weights
	// and sel columns, so installs rewrite them in place.
	entries []percEntry
	weights []sat.Weight
	sel     []uint8
}

// PercConfig parameterizes the perceptron.
type PercConfig struct {
	RowBits   uint  // log2 rows (4 -> 16 rows)
	Ways      int   // associativity (2)
	Weights   int   // weight count (17)
	Virtual   int   // GPV bits per weight (2 = "2:1 virtualization")
	TagBits   uint  // partial tag on branch address
	UsefulMax uint8 // usefulness saturation
	// ProviderThreshold is the global usefulness bar for becoming the
	// direction provider.
	ProviderThreshold uint8
	// LowThreshold: below it, usefulness is incremented even when both
	// perceptron and provider were wrong (helps young entries learn).
	LowThreshold uint8
	// Protection is the initial protection limit of a new entry.
	Protection uint8
	// VirtualizePeriod: every this-many trainings, weights with
	// magnitude <= VirtualizeMag are re-virtualized.
	VirtualizePeriod int
	VirtualizeMag    int
}

// DefaultPercConfig returns the z14/z15-style parameters.
func DefaultPercConfig() PercConfig {
	return PercConfig{
		RowBits: 4, Ways: 2, Weights: 17, Virtual: 2, TagBits: 12,
		UsefulMax: 15, ProviderThreshold: 8, LowThreshold: 4,
		Protection: 6, VirtualizePeriod: 64, VirtualizeMag: 1,
	}
}

type percEntry struct {
	valid      bool
	tag        uint64
	weights    []sat.Weight
	sel        []uint8 // which virtualized candidate bit each weight watches
	useful     sat.UCounter
	protection sat.UCounter
	trainings  int
}

// NewPerceptron returns an empty perceptron table.
func NewPerceptron(cfg PercConfig) *Perceptron {
	p := new(Perceptron)
	p.Reset(cfg)
	return p
}

// Reset empties the table in place for cfg, reusing its storage when
// it is large enough.
func (p *Perceptron) Reset(cfg PercConfig) {
	if cfg.Weights <= 0 || cfg.Ways <= 0 || cfg.Virtual <= 0 {
		panic("dirpred: invalid perceptron config")
	}
	n := cfg.Ways << cfg.RowBits
	*p = Perceptron{
		cfg:     cfg,
		entries: reuse.Slice(p.entries, n),
		weights: reuse.Slice(p.weights, n*cfg.Weights),
		sel:     reuse.Slice(p.sel, n*cfg.Weights),
	}
	for i := range p.entries {
		lo, hi := i*cfg.Weights, (i+1)*cfg.Weights
		p.entries[i].weights = p.weights[lo:hi:hi]
		p.entries[i].sel = p.sel[lo:hi:hi]
	}
}

// Entries returns total capacity (32 on z15).
func (p *Perceptron) Entries() int { return len(p.entries) }

func (p *Perceptron) row(addr zarch.Addr) []percEntry {
	r := int(uint64(addr) >> 1 & (1<<p.cfg.RowBits - 1))
	return p.entries[r*p.cfg.Ways : (r+1)*p.cfg.Ways]
}

func (p *Perceptron) tag(addr zarch.Addr) uint64 {
	return uint64(addr) >> (1 + p.cfg.RowBits) & (1<<p.cfg.TagBits - 1)
}

func (p *Perceptron) find(addr zarch.Addr) *percEntry {
	row := p.row(addr)
	tag := p.tag(addr)
	for w := range row {
		if row[w].valid && row[w].tag == tag {
			return &row[w]
		}
	}
	return nil
}

// gpvBitFor returns the history bit weight i currently watches.
func (p *Perceptron) gpvBitFor(e *percEntry, g history.GPV, i int) bool {
	bit := i*p.cfg.Virtual + int(e.sel[i])
	if bit >= g.Width() {
		bit = g.Width() - 1
	}
	return g.Bit(bit)
}

// PercResult is a perceptron lookup outcome.
type PercResult struct {
	Hit    bool
	Taken  bool
	Sum    int
	Useful bool // usefulness above the provider threshold
}

// Lookup evaluates the perceptron for a branch.
func (p *Perceptron) Lookup(addr zarch.Addr, g history.GPV) PercResult {
	e := p.find(addr)
	if e == nil {
		return PercResult{}
	}
	sum := 0
	for i := range e.weights {
		if p.gpvBitFor(e, g, i) {
			sum += int(e.weights[i])
		} else {
			sum -= int(e.weights[i])
		}
	}
	return PercResult{
		Hit:    true,
		Taken:  sum >= 0,
		Sum:    sum,
		Useful: e.useful.Get() >= p.cfg.ProviderThreshold,
	}
}

// Train updates weights toward the resolved direction using the
// prediction-time history snapshot: resolved taken increments weights
// whose watched GPV bit was 1 and decrements the rest; resolved
// not-taken does the opposite (§V). Periodically, weights whose
// magnitude stayed near zero are re-virtualized to their alternate
// candidate history bit.
func (p *Perceptron) Train(addr zarch.Addr, g history.GPV, taken bool) {
	e := p.find(addr)
	if e == nil {
		return
	}
	for i := range e.weights {
		bit := p.gpvBitFor(e, g, i)
		e.weights[i] = e.weights[i].Bump(bit == taken)
	}
	e.trainings++
	if p.cfg.VirtualizePeriod > 0 && e.trainings%p.cfg.VirtualizePeriod == 0 {
		for i := range e.weights {
			if e.weights[i].Abs() <= p.cfg.VirtualizeMag {
				e.sel[i] = (e.sel[i] + 1) % uint8(p.cfg.Virtual)
				e.weights[i] = 0
			}
		}
	}
}

// UsefulDelta adjusts the entry's usefulness after completion:
// perceptron right & provider wrong -> +1; perceptron wrong & provider
// right -> -1; both wrong and usefulness below LowThreshold -> +1.
func (p *Perceptron) UsefulDelta(addr zarch.Addr, percRight, providerRight bool) {
	e := p.find(addr)
	if e == nil {
		return
	}
	switch {
	case percRight && !providerRight:
		e.useful = e.useful.Inc()
	case !percRight && providerRight:
		e.useful = e.useful.Dec()
	case !percRight && !providerRight && e.useful.Get() < p.cfg.LowThreshold:
		e.useful = e.useful.Inc()
	}
}

// TryInstall attempts to allocate an entry for a hard-to-predict
// branch. The victim is the least-useful entry in the row whose
// protection limit is exhausted; every failed attempt decrements the
// candidates' protection (§V). Reports whether an entry was created.
func (p *Perceptron) TryInstall(addr zarch.Addr) bool {
	if p.find(addr) != nil {
		return false
	}
	row := p.row(addr)
	// Free way first.
	for w := range row {
		if !row[w].valid {
			p.renew(&row[w], addr)
			return true
		}
	}
	// Least useful with zero protection.
	victim := -1
	for w := range row {
		if !row[w].protection.Zero() {
			row[w].protection = row[w].protection.Dec()
			continue
		}
		if victim == -1 || row[w].useful.Get() < row[victim].useful.Get() {
			victim = w
		}
	}
	if victim == -1 {
		return false
	}
	p.renew(&row[victim], addr)
	return true
}

// renew rewrites e as a freshly installed entry for addr, zeroing its
// weights and virtualization selects in place.
func (p *Perceptron) renew(e *percEntry, addr zarch.Addr) {
	clear(e.weights)
	clear(e.sel)
	*e = percEntry{
		valid:      true,
		tag:        p.tag(addr),
		weights:    e.weights,
		sel:        e.sel,
		useful:     sat.NewU(0, p.cfg.UsefulMax),
		protection: sat.NewU(p.cfg.Protection, p.cfg.Protection),
	}
}

// Has reports whether addr currently has an entry (for tests).
func (p *Perceptron) Has(addr zarch.Addr) bool { return p.find(addr) != nil }

// Usefulness returns the usefulness value for addr, or -1 when absent
// (for tests and the verification harness).
func (p *Perceptron) Usefulness(addr zarch.Addr) int {
	e := p.find(addr)
	if e == nil {
		return -1
	}
	return int(e.useful.Get())
}
