package chainsim

import (
	"errors"
	"fmt"
)

// Ledger is the account state: integer balances in indivisible units, so
// conservation can be checked exactly. For PoS engines a balance is also
// the account's staking power; for PoW it is only spendable reward.
type Ledger struct {
	balances map[Address]uint64
	issued   uint64 // total coinbase issued on top of genesis
	genesis  uint64 // total units allocated at genesis
}

// NewLedger creates a ledger from the genesis allocation.
func NewLedger(genesis map[Address]uint64) *Ledger {
	l := &Ledger{balances: make(map[Address]uint64, len(genesis))}
	for a, v := range genesis {
		l.balances[a] = v
		l.genesis += v
	}
	return l
}

// Balance returns the balance of addr (0 for unknown accounts).
func (l *Ledger) Balance(addr Address) uint64 { return l.balances[addr] }

// Credit adds amount to addr and tracks issuance.
func (l *Ledger) Credit(addr Address, amount uint64) {
	l.balances[addr] += amount
	l.issued += amount
}

// TotalSupply returns genesis + issued units.
func (l *Ledger) TotalSupply() uint64 { return l.genesis + l.issued }

// Issued returns the units created by coinbase rewards.
func (l *Ledger) Issued() uint64 { return l.issued }

// CheckConservation verifies that the balance sheet adds up exactly. A
// failure indicates a bug in reward application.
func (l *Ledger) CheckConservation() error {
	var sum uint64
	for _, v := range l.balances {
		sum += v
	}
	if sum != l.TotalSupply() {
		return fmt.Errorf("chainsim: ledger imbalance: balances sum %d, supply %d", sum, l.TotalSupply())
	}
	return nil
}

// ErrEmptyGenesis reports a genesis allocation with no stake.
var ErrEmptyGenesis = errors.New("chainsim: genesis allocation is empty")
