"""Prints the parent-vs-change tables of EXPERIMENTS.md section 15 from pairs.tsv.

    python3 artifacts/bench_pr29/table.py artifacts/bench_pr29/pairs.tsv

One row per (series, workload, seed, metric): each side's quartiles by linear
interpolation, the interquartile distance, the change of the medians, and in
how many pairs the change read better. Then, per group, whether every run
produced the same digest, sim_* statistics, failed count and correct flag,
and in how many pairs the side that ran second was slower on
host_us_per_query.
"""
import csv
import sys

METRICS = [('host_us_per_query', -1, 1), ('capacity_mps', 1, 1), ('lat_p50_ms', -1, 1),
           ('peak_rss_mb', -1, 1), ('setup_s', -1, 1000)]
IDENTITY = ['digest', 'sim_resp_mean_s', 'sim_cons_allocsat', 'sim_prov_sat', 'failed', 'correct']


def quantile(vs, p):
    vs = sorted(vs)
    k = (len(vs) - 1) * p
    f = int(k)
    c = min(f + 1, len(vs) - 1)
    return vs[f] + (vs[c] - vs[f]) * (k - f)


def fmt(v):
    return '%.0f' % v if abs(v) >= 1000 else '%.4g' % v


def main(path):
    groups = {}
    for r in csv.DictReader(open(path), delimiter='\t'):
        groups.setdefault((r['series'], r['workload'], r['seed']), {}).setdefault(r['pair'], {})[r['side']] = r
    print('| series | workload, seed | metric | parent q1 / median / q3 (IQR) | change q1 / median / q3 (IQR) | median change | change better in |')
    print('|---|---|---|---|---|---|---|')
    for (series, w, seed), pairs in groups.items():
        full = [p for p in pairs.values() if 'parent' in p and 'change' in p]
        for m, better_sign, scale in METRICS:
            pv = [float(p['parent'][m]) * scale for p in full]
            cv = [float(p['change'][m]) * scale for p in full]
            better = sum(1 for a, b in zip(pv, cv) if (b - a) * better_sign > 0)
            q = [quantile(pv, x) for x in (.25, .5, .75)] + [quantile(cv, x) for x in (.25, .5, .75)]
            name = '`%s`' % m if scale == 1 else '`%s (ms)`' % m
            print('| %s | %s, %s | %s | %s / **%s** / %s (%s) | %s / **%s** / %s (%s) | %+.1f %% | %d / %d |' % (
                series, w, seed, name, fmt(q[0]), fmt(q[1]), fmt(q[2]), fmt(q[2] - q[0]),
                fmt(q[3]), fmt(q[4]), fmt(q[5]), fmt(q[5] - q[3]), (q[4] - q[1]) / q[1] * 100, better, len(full)))
    print()
    for (series, w, seed), pairs in groups.items():
        runs = [r for p in pairs.values() for r in p.values()]
        same = len({tuple(r[k] for k in IDENTITY) for r in runs}) == 1
        full = [p for p in pairs.values() if 'parent' in p and 'change' in p]
        second_slower = 0
        for p in full:
            first, second = sorted(p.values(), key=lambda r: r['ran'])
            second_slower += float(second['host_us_per_query']) > float(first['host_us_per_query'])
        print('%s %s seed %s: %d runs, outputs %s; second-run side slower in %d / %d pairs' % (
            series, w, seed, len(runs), 'identical' if same else 'DIFFER', second_slower, len(full)))


if __name__ == '__main__':
    main(sys.argv[1])
