// Package loadgen holds the standard serving query mix. The repository
// benchmark's serve_mixed and serve_light workloads deal it to their
// clients, and the tpch tests hold its plans to the shapes the benchmark
// expects.
package loadgen

// TPCHMix is the standard serving mix over a lineitem table: the Q1
// group-by, a Q6-shaped pure filtered sum, and a string-dictionary
// filter — three queries stressing the grouped, span, and dict-domain
// engine paths.
func TPCHMix(tbl string) []string {
	return []string{
		"SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice * (100 - l_discount)), avg(l_discount), count(*) " +
			"FROM " + tbl + " WHERE l_shipdate <= 2436 GROUP BY l_returnflag, l_linestatus",
		"SELECT sum(l_extendedprice * l_discount) FROM " + tbl +
			" WHERE l_shipdate <= 2436 AND l_discount >= 5 AND l_quantity < 24",
		"SELECT count(*), sum(l_extendedprice) FROM " + tbl +
			" WHERE l_returnflag IN ('A', 'R')",
	}
}
