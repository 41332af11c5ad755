package devices

import "repro/internal/chips"

// Builds returns how many devices Acquire has constructed in this process.
func Builds() int64 { return builds.Load() }

// Idle returns how many devices of the chip configuration are idle.
func Idle(chip *chips.Chip) int {
	pool.Lock()
	defer pool.Unlock()
	return len(pool.idle[*chip])
}
