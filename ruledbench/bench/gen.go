// Package bench holds what the wire-level benchmark of ruled and its
// traced in-process replay share: the seeded workload generators with
// the replies they predict, the ruled process and line-JSON client, and
// the statistics and result printing. It uses the standard library only,
// so the end-to-end benchmark depends on the program solely through the
// ruled command line and its wire protocol.
package bench

import (
	"fmt"
	"math/rand"
	"strings"
)

// Mode is the ruled deployment shape a workload runs against.
type Mode int

const (
	// Flat is one ruled process serving one rule system.
	Flat Mode = iota
	// Tenants is one ruled -tenants process serving a fleet.
	Tenants
	// Cluster is a ruled -cluster leader and follower on loopback.
	Cluster
)

// Kind classifies an op for the read/write latency split.
type Kind int

const (
	// Read changes no rows: a select or a stats op.
	Read Kind = iota
	// Write changes rows.
	Write
)

// Stmt is the predicted result of one statement of an assert.
type Stmt struct {
	// Affected is the predicted affected-row count.
	Affected int
	// Rows is the predicted row count; -1 means the statement returns no
	// rows to check (a non-select).
	Rows int
	// First is the predicted first column of each row, compared as
	// rendered JSON; nil leaves it unchecked.
	First []any
}

// Op is one generated request with the reply the generator predicts.
type Op struct {
	Kind   Kind
	Tenant string
	// Stats marks a stats op; otherwise the op is an assert of SQL.
	Stats bool
	SQL   string
	// Considered and Fired are the predicted rule-processing totals.
	Considered, Fired int
	// Expect holds one prediction per statement of SQL.
	Expect []Stmt
}

// Workload is one generated traffic shape: the rule system it runs on,
// the data it preloads, and a seeded stream of requests whose replies
// it predicts.
type Workload struct {
	Name string
	Mode Mode
	// Schema and Rules are the rule-system sources (per tenant in
	// Tenants mode).
	Schema, Rules string
	// TenantIDs names the fleet in Tenants mode.
	TenantIDs []string
	// Rate is the open-loop arrival rate in requests per second.
	Rate float64
	// Rows is the number of rows the preload leaves in the database.
	Rows int

	gen generator
	rng *rand.Rand
}

// generator produces a workload's preload, request stream, and the
// end-of-run checks that follow from every op it generated.
type generator interface {
	preload() []Op
	next(rng *rand.Rand) Op
	final() []Op
}

// Preload returns the requests that populate the database before any
// measurement. Call it once, before Next.
func (w *Workload) Preload() []Op { return w.gen.preload() }

// Next returns the next request of the seeded stream. It is not safe
// for concurrent use.
func (w *Workload) Next() Op { return w.gen.next(w.rng) }

// Final returns order-independent count queries whose predicted results
// follow from every op Preload and Next have returned.
func (w *Workload) Final() []Op { return w.gen.final() }

// Size scales a workload: Full is the benchmarked size, Smoke a tiny
// one for the benchmark's own tests.
type Size int

const (
	Full Size = iota
	Smoke
)

// Names lists every workload. BENCHMARK.json gates all of them but
// tenant_fleet, whose fsync-bound figures drift with the disk's
// neighbours more than any bound allows; it still runs on request.
var Names = []string{"bank_rw", "powernet_cascade", "tenant_fleet", "cluster_ack"}

// New returns the named workload seeded with seed, or an error for an
// unknown name.
func New(name string, seed int64, size Size) (*Workload, error) {
	small := size == Smoke
	pick := func(full, smoke int) int {
		if small {
			return smoke
		}
		return full
	}
	switch name {
	case "bank_rw":
		return NewBank(seed, pick(100, 4), pick(100, 25)), nil
	case "powernet_cascade":
		return NewPowernet(seed, pick(400, 12), 8, pick(16, 4)), nil
	case "tenant_fleet":
		b := &bankGen{clusters: 1, accounts: pick(200, 20), reads: 0.09, updates: 0.80, stats: 0.01, negative: 0.25}
		ids := make([]string, 8)
		for i := range ids {
			ids[i] = fmt.Sprintf("t%d", i)
		}
		b.init(ids)
		s, r := bankSources(1)
		return &Workload{Name: name, Mode: Tenants, Schema: s, Rules: r, TenantIDs: ids,
			Rate: 300, Rows: len(ids) * 2 * b.accounts, gen: b, rng: rand.New(rand.NewSource(seed))}, nil
	case "cluster_ack":
		b := &bankGen{clusters: 4, accounts: pick(250, 20), reads: 0.10, updates: 0.90}
		b.init([]string{""})
		s, r := bankSources(b.clusters)
		return &Workload{Name: name, Mode: Cluster, Schema: s, Rules: r,
			Rate: 150, Rows: 2 * b.clusters * b.accounts, gen: b, rng: rand.New(rand.NewSource(seed))}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(Names, ", "))
}

// NewBank is bank_rw at a chosen size: the bank rule cluster replicated
// clusters times (3 rules each), accounts preloaded accounts per
// cluster, and a mix of ~70% point selects, ~20% balance updates (a
// quarter negative, so r_hold fires) and ~10% new accounts (r_audit).
func NewBank(seed int64, clusters, accounts int) *Workload {
	b := &bankGen{clusters: clusters, accounts: accounts, reads: 0.70, updates: 0.20, negative: 0.25}
	b.init([]string{""})
	s, r := bankSources(clusters)
	return &Workload{Name: "bank_rw", Mode: Flat, Schema: s, Rules: r,
		Rate: 20, Rows: 2 * clusters * accounts, gen: b, rng: rand.New(rand.NewSource(seed))}
}

// NewPowernet is powernet_cascade at a chosen size: the powernet rule
// cluster replicated clusters times (2 rules each), of which hot
// seeded clusters hold a powered chain of depth wires.
func NewPowernet(seed int64, clusters, hot, depth int) *Workload {
	rng := rand.New(rand.NewSource(seed))
	p := &powerGen{depth: depth, hot: rng.Perm(clusters)[:hot]}
	s, r := powernetSources(clusters)
	return &Workload{Name: "powernet_cascade", Mode: Flat, Schema: s, Rules: r,
		Rate: 50, Rows: hot * (2*depth + 1), gen: p, rng: rng}
}

// bankSources replicates the bank example's {account, audit, holds}
// cluster (rules r_audit, r_hold, r_purge) the given number of times.
func bankSources(clusters int) (schemaSrc, rulesSrc string) {
	var sb, rb strings.Builder
	for i := 0; i < clusters; i++ {
		fmt.Fprintf(&sb, "table account%d (id int, owner string, balance int)\n", i)
		fmt.Fprintf(&sb, "table audit%d (id int, owner string)\n", i)
		fmt.Fprintf(&sb, "table holds%d (id int, acct int)\n", i)
		fmt.Fprintf(&rb, `
create rule r_audit%[1]d on account%[1]d
when inserted
then insert into audit%[1]d select id, owner from inserted

create rule r_hold%[1]d on account%[1]d
when updated(balance)
if exists (select 1 from new-updated nu where nu.balance < 0)
then insert into holds%[1]d select nu.id, nu.id from new-updated nu where nu.balance < 0

create rule r_purge%[1]d on account%[1]d
when deleted
then delete from holds%[1]d where acct in (select id from deleted)
`, i)
	}
	return sb.String(), rb.String()
}

// powernetSources replicates the powernet example's {node, wire}
// cluster (rules w_live, n_power) the given number of times.
func powernetSources(clusters int) (schemaSrc, rulesSrc string) {
	var sb, rb strings.Builder
	for i := 0; i < clusters; i++ {
		fmt.Fprintf(&sb, "table node%d (id int, kind string, powered bool)\n", i)
		fmt.Fprintf(&sb, "table wire%d (id int, src int, dst int, live bool)\n", i)
		fmt.Fprintf(&rb, `
create rule w_live%[1]d on node%[1]d
when updated(powered), inserted
then update wire%[1]d set live = true
     where live = false and src in (select id from node%[1]d where powered = true)

create rule n_power%[1]d on wire%[1]d
when updated(live), inserted
then update node%[1]d set powered = true
     where powered = false and id in (select dst from wire%[1]d where live = true)
`, i)
	}
	return sb.String(), rb.String()
}

// bankGen generates bank traffic over one or more tenants (the empty
// tenant in flat and cluster mode). Every update sets a balance to a
// value no earlier op used, so it always changes the row and r_hold
// fires exactly when the value is negative, whatever order the server
// applies concurrent requests in.
type bankGen struct {
	clusters, accounts int
	// reads, updates and stats are the op mix; the rest are inserts.
	reads, updates, stats float64
	// negative is the share of updates that set a negative balance.
	negative float64

	tenants []string
	// per tenant and cluster: next account id, accounts, holds
	nextID, nAccounts, nHolds [][]int
	uniq                      int
}

// streamBalance offsets the balances the stream writes above every
// preloaded balance (an account's id), so no update rewrites a value.
const streamBalance = 1_000_000

func (b *bankGen) init(tenants []string) {
	b.tenants = tenants
	for range tenants {
		next, acc, holds := make([]int, b.clusters), make([]int, b.clusters), make([]int, b.clusters)
		for c := range next {
			next[c] = b.accounts + 1
		}
		b.nextID = append(b.nextID, next)
		b.nAccounts = append(b.nAccounts, acc)
		b.nHolds = append(b.nHolds, holds)
	}
}

// preload inserts accounts 1..accounts into every cluster of every
// tenant, ten clusters per request; r_audit mirrors each into audit.
func (b *bankGen) preload() []Op {
	var ops []Op
	for t, tenant := range b.tenants {
		for c0 := 0; c0 < b.clusters; c0 += 10 {
			op := Op{Kind: Write, Tenant: tenant}
			var sql strings.Builder
			for c := c0; c < c0+10 && c < b.clusters; c++ {
				if sql.Len() > 0 {
					sql.WriteString("; ")
				}
				fmt.Fprintf(&sql, "insert into account%d values ", c)
				for id := 1; id <= b.accounts; id++ {
					if id > 1 {
						sql.WriteString(", ")
					}
					fmt.Fprintf(&sql, "(%d, 'o%d', %d)", id, id, id)
				}
				op.Expect = append(op.Expect, Stmt{Affected: b.accounts, Rows: -1})
				op.Considered++
				op.Fired++
				b.nAccounts[t][c] = b.accounts
			}
			op.SQL = sql.String()
			ops = append(ops, op)
		}
	}
	return ops
}

func (b *bankGen) next(rng *rand.Rand) Op {
	t := rng.Intn(len(b.tenants))
	tenant := b.tenants[t]
	c := rng.Intn(b.clusters)
	id := 1 + rng.Intn(b.accounts)
	b.uniq++
	r := rng.Float64()
	switch {
	case r < b.stats:
		return Op{Kind: Read, Tenant: tenant, Stats: true}
	case r < b.stats+b.reads:
		return Op{Kind: Read, Tenant: tenant,
			SQL:    fmt.Sprintf("select id, balance from account%d where id = %d", c, id),
			Expect: []Stmt{{Rows: 1, First: []any{id}}}}
	case r < b.stats+b.reads+b.updates:
		v := streamBalance + b.uniq
		op := Op{Kind: Write, Tenant: tenant, Considered: 1, Expect: []Stmt{{Affected: 1, Rows: -1}}}
		if rng.Float64() < b.negative {
			v = -v
			op.Fired = 1
			b.nHolds[t][c]++
		}
		op.SQL = fmt.Sprintf("update account%d set balance = %d where id = %d", c, v, id)
		return op
	default:
		nid := b.nextID[t][c]
		b.nextID[t][c]++
		b.nAccounts[t][c]++
		return Op{Kind: Write, Tenant: tenant, Considered: 1, Fired: 1,
			SQL:    fmt.Sprintf("insert into account%d values (%d, 'o%d', %d)", c, nid, nid, streamBalance+b.uniq),
			Expect: []Stmt{{Affected: 1, Rows: -1}}}
	}
}

// final counts accounts, audit rows (one per account, by r_audit) and
// holds (one per negative update, by r_hold) in every cluster.
func (b *bankGen) final() []Op {
	var ops []Op
	for t, tenant := range b.tenants {
		op := Op{Kind: Read, Tenant: tenant}
		var sql []string
		for c := 0; c < b.clusters; c++ {
			sql = append(sql,
				fmt.Sprintf("select count(*) from account%d", c),
				fmt.Sprintf("select count(*) from audit%d", c),
				fmt.Sprintf("select count(*) from holds%d", c))
			n := b.nAccounts[t][c]
			op.Expect = append(op.Expect,
				Stmt{Rows: 1, First: []any{n}},
				Stmt{Rows: 1, First: []any{n}},
				Stmt{Rows: 1, First: []any{b.nHolds[t][c]}})
		}
		op.SQL = strings.Join(sql, "; ")
		ops = append(ops, op)
	}
	return ops
}

// powerGen drives powered chains: node 0 is a plant feeding wire k from
// node k to node k+1. A cascade request un-powers the whole chain,
// kills every wire and re-powers node 0 in one transaction; rule
// processing then re-powers the chain hop by hop. Every request starts
// from a fully powered chain, so the number of rule firings is the same
// for every request, whichever order the server applies them in.
type powerGen struct {
	depth int
	hot   []int
}

// cascadeFirings is the predicted rule firings of one cascade, all
// considerations firing (neither rule has a condition): one n_power for
// the user's wire updates, then a w_live/n_power pair per wire, and a
// last w_live after the tail node is powered.
func (p *powerGen) cascadeFirings() int { return 2*p.depth + 2 }

func (p *powerGen) preload() []Op {
	var ops []Op
	for _, c := range p.hot {
		var nodes, wires []string
		for k := 0; k <= p.depth; k++ {
			kind := "load"
			if k == 0 {
				kind = "plant"
			}
			nodes = append(nodes, fmt.Sprintf("(%d, '%s', true)", k, kind))
			if k < p.depth {
				wires = append(wires, fmt.Sprintf("(%d, %d, %d, true)", k, k, k+1))
			}
		}
		ops = append(ops, Op{Kind: Write, Considered: 2, Fired: 2,
			SQL: fmt.Sprintf("insert into node%d values %s; insert into wire%d values %s",
				c, strings.Join(nodes, ", "), c, strings.Join(wires, ", ")),
			Expect: []Stmt{{Affected: p.depth + 1, Rows: -1}, {Affected: p.depth, Rows: -1}}})
	}
	return ops
}

func (p *powerGen) next(rng *rand.Rand) Op {
	c := p.hot[rng.Intn(len(p.hot))]
	if rng.Float64() < 0.10 {
		k := rng.Intn(p.depth + 1)
		return Op{Kind: Read,
			SQL:    fmt.Sprintf("select powered from node%d where id = %d", c, k),
			Expect: []Stmt{{Rows: 1, First: []any{true}}}}
	}
	n := p.cascadeFirings()
	return Op{Kind: Write, Considered: n, Fired: n,
		SQL: fmt.Sprintf("update node%[1]d set powered = false; update wire%[1]d set live = false; update node%[1]d set powered = true where id = 0", c),
		Expect: []Stmt{
			{Affected: p.depth + 1, Rows: -1},
			{Affected: p.depth, Rows: -1},
			{Affected: 1, Rows: -1},
		}}
}

func (p *powerGen) final() []Op {
	op := Op{Kind: Read}
	var sql []string
	for _, c := range p.hot {
		sql = append(sql,
			fmt.Sprintf("select count(*) from node%d where powered = true", c),
			fmt.Sprintf("select count(*) from wire%d where live = true", c))
		op.Expect = append(op.Expect,
			Stmt{Rows: 1, First: []any{p.depth + 1}},
			Stmt{Rows: 1, First: []any{p.depth}})
	}
	op.SQL = strings.Join(sql, "; ")
	return []Op{op}
}
