package game

// Batch is a structure-of-arrays arena of n identically configured game
// states: every state's Stakes, Rewards, Initial and pending slices are
// carved out of four flat backing arrays, so a batched trial loop that
// steps state 0..n-1 per block walks contiguous memory. Allocated once
// and recycled with Reset, a Batch gives the Monte-Carlo inner loop a
// zero-allocation steady path.
type Batch struct {
	states []State
}

// NewBatch validates the initial allocation exactly like New and returns
// an arena of n states over it, each configured with opts. Every state
// starts identical to New(initial, opts...).
func NewBatch(n int, initial []float64, opts ...Option) (*Batch, error) {
	if n <= 0 {
		return nil, ErrBadInitial
	}
	proto, err := New(initial, opts...)
	if err != nil {
		return nil, err
	}
	m := len(proto.Initial)
	backing := make([]float64, 4*n*m)
	b := &Batch{states: make([]State, n)}
	for i := range b.states {
		st := &b.states[i]
		st.Stakes = backing[(4*i+0)*m : (4*i+1)*m : (4*i+1)*m]
		st.Rewards = backing[(4*i+1)*m : (4*i+2)*m : (4*i+2)*m]
		st.Initial = backing[(4*i+2)*m : (4*i+3)*m : (4*i+3)*m]
		st.pending = backing[(4*i+3)*m : (4*i+4)*m : (4*i+4)*m]
		st.withholdEvery = proto.withholdEvery
		st.minerWithhold = proto.minerWithhold // read-only after construction
		copy(st.Initial, proto.Initial)
		copy(st.Stakes, proto.Initial)
	}
	return b, nil
}

// State returns the i-th state of the arena. The pointer stays valid for
// the life of the Batch; Reset it between trials instead of reallocating.
func (b *Batch) State(i int) *State { return &b.states[i] }

// Reset rewinds a state to its initial configuration: stakes back to the
// normalised initial shares, rewards and withheld stake zeroed, block
// count zero. The withholding period is preserved.
func (s *State) Reset() {
	copy(s.Stakes, s.Initial)
	for i := range s.Rewards {
		s.Rewards[i] = 0
	}
	for i := range s.pending {
		s.pending[i] = 0
	}
	s.Blocks = 0
}
