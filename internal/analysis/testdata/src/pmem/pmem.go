// Package pmem is a fixture stand-in for the real persistent-memory
// model: the fencepath analyzer matches NVM-mutating primitives by
// package name + method name, so this stub exercises the same matching
// the real tree gets.
package pmem

type Addr uintptr

type Pool struct{ mem []uint64 }

func (p *Pool) Load(pid int, a Addr) uint64     { return p.mem[a] }
func (p *Pool) Store(pid int, a Addr, v uint64) { p.mem[a] = v }
func (p *Pool) StoreLine(pid int, a Addr, v []uint64) {
	copy(p.mem[a:], v)
}
func (p *Pool) Fence(pid int)                  {}
func (p *Pool) Persist(pid int, a Addr, n int) { p.Fence(pid) }
func (p *Pool) DurableWord(a Addr) uint64      { return p.mem[a] }
