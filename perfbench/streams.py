"""Seeded query streams for the benchmark workloads.

Every stream is a pure function of its seed: the same seed yields a
byte-identical query list (checked through :func:`digest`), and the
program under test only ever sees the generated SQL text.

Streams are built in *rounds*.  A stream-mix round holds one query of
each Table I family (TPCH-2, TPCH-17, IBM, TPCH-5, TPCH-9) under each
strategy (baseline, feedforward, costbased); the literals are drawn
from the data generator's value domains.  Every round has the same
make-up, so any whole number of rounds carries the same share of each
query shape and strategy.

The seed picks the literals only.  The two clients of a closed loop
wait on each other's queries, so the order of shapes sets which queries
overlap, and with it the latency distribution.  A seed-shuffled order
would move the latency percentiles from seed to seed; one fixed order,
repeated, makes the distribution lumpy (a few repeated overlaps), so
its median jumps between lumps.  Each round is therefore shuffled by
its index: every seed sees the same sequence of shapes, and the
overlaps vary within a run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Sequence, Tuple

#: Value domains, as in ``repro.data.text`` (kept literal here so the
#: generator does not depend on the program it feeds).
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
NATIONS = (
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
)
TYPE_SUFFIXES = ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
CONTAINERS = tuple(
    "%s %s" % (a, b)
    for a in ("SM", "MED", "LG", "JUMBO", "WRAP")
    for b in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")
)
BRANDS = tuple("Brand#%d%d" % (m, n) for m in range(1, 6) for n in range(1, 6))
COLOURS = (
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished",
    "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk",
    "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
    "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
    "green", "grey", "honeydew", "hot", "indian", "ivory", "khaki", "lace",
    "lavender", "lawn", "lemon", "light", "lime", "linen", "magenta",
    "maroon", "medium", "metallic", "midnight", "mint", "misty", "moccasin",
    "navajo", "navy", "olive", "orange", "orchid", "pale", "papaya", "peach",
    "peru", "pink", "plum", "powder", "puff", "purple", "red", "rose", "rosy",
    "royal", "saddle", "salmon", "sandy", "seashell", "sienna", "sky",
    "slate", "smoke", "snow", "spring", "steel", "tan", "thistle", "tomato",
    "turquoise", "violet", "wheat", "white", "yellow",
)
STRATEGIES = ("baseline", "feedforward", "costbased")

_TPCH2 = """select s_acctbal, s_name, n_name, p_partkey, p_mfgr,
 s_address, s_phone, s_comment
from part, supplier, partsupp, nation, region
where p_partkey = ps_partkey and s_suppkey = ps_suppkey
 and p_size = {size} and p_type like '%{suffix}'
 and s_nationkey = n_nationkey and n_regionkey = r_regionkey
 and r_name = '{region}'
 and ps_supplycost = (select min(ps_supplycost)
  from partsupp, supplier, nation, region
  where p_partkey = ps_partkey and s_suppkey = ps_suppkey
   and s_nationkey = n_nationkey and n_regionkey = r_regionkey
   and r_name = '{region}')"""

_TPCH17 = """select sum(l_extendedprice) / 7.0 as avg_yearly
from lineitem, part
where p_partkey = l_partkey and p_brand = '{brand}'
 and p_container = '{container}'
 and l_quantity < (select 0.2 * avg(l_quantity) from lineitem
  where l_partkey = p_partkey)"""

_IBM = """select s_name, s_acctbal, s_address, s_phone, s_comment
from part, supplier, partsupp, nation
where n_name = '{nation}' and p_size = {size}
 and p_type like '%{suffix}'
 and p_partkey = ps_partkey and s_suppkey = ps_suppkey
 and s_nationkey = n_nationkey
 and ps_supplycost = (select min(ps_supplycost)
  from partsupp, supplier, nation
  where p_partkey = ps_partkey and s_suppkey = ps_suppkey
   and s_nationkey = n_nationkey and n_name = '{nation}')"""

_TPCH5 = """select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from customer, orders, lineitem, supplier, nation, region
where c_custkey = o_custkey and l_orderkey = o_orderkey
 and l_suppkey = s_suppkey and c_nationkey = s_nationkey
 and s_nationkey = n_nationkey and n_regionkey = r_regionkey
 and r_name = '{region}'
 and o_orderdate >= '{year}-{month}-01'
 and o_orderdate < '{next_year}-{month}-01'
group by n_name"""

_TPCH9 = """select n_name, year(o_orderdate) as o_year,
 sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity)
  as sum_amount
from part, supplier, lineitem, partsupp, orders, nation
where s_suppkey = l_suppkey and ps_suppkey = l_suppkey
 and ps_partkey = l_partkey and p_partkey = l_partkey
 and o_orderkey = l_orderkey and s_nationkey = n_nationkey
 and p_name like '%{colour}%'
group by n_name, year(o_orderdate)"""

#: ~2000-row result at SF 0.002: 500 of its 3000 orders, ~4 lines each.
_WIDE = """select l_orderkey, l_linenumber, l_partkey, l_suppkey, l_quantity,
 l_extendedprice
from lineitem
where l_orderkey >= {lo} and l_orderkey <= {hi}"""


def _tpch2(rng: random.Random) -> str:
    return _TPCH2.format(
        size=rng.randint(1, 50), suffix=rng.choice(TYPE_SUFFIXES),
        region=rng.choice(REGIONS),
    )


def _tpch17(rng: random.Random) -> str:
    return _TPCH17.format(
        brand=rng.choice(BRANDS), container=rng.choice(CONTAINERS),
    )


def _ibm(rng: random.Random) -> str:
    return _IBM.format(
        nation=rng.choice(NATIONS), size=rng.randint(1, 50),
        suffix=rng.choice(TYPE_SUFFIXES),
    )


def _tpch5(rng: random.Random) -> str:
    year = rng.randint(1993, 1997)
    return _TPCH5.format(
        region=rng.choice(REGIONS), year=year, next_year=year + 1,
        month=rng.choice(("01", "04", "07", "10")),
    )


def _tpch9(rng: random.Random) -> str:
    return _TPCH9.format(colour=rng.choice(COLOURS))


def _wide(rng: random.Random) -> str:
    lo = rng.randint(1, 2500)
    return _WIDE.format(lo=lo, hi=lo + 499)


#: Table I families: name -> literal-drawing template.
FAMILIES: Dict[str, Callable[[random.Random], str]] = {
    "tpch2": _tpch2,
    "tpch17": _tpch17,
    "ibm": _ibm,
    "tpch5": _tpch5,
    "tpch9": _tpch9,
}

#: Draws before a family may repeat a literal combination (the
#: smallest domain, TPCH-9's colours, has 92 values).
_MAX_DRAWS = 200


@dataclass(frozen=True)
class Query:
    """One generated request: SQL text, strategy, and its family."""

    family: str
    strategy: str
    sql: str


def mix_stream(seed: int, rounds: int) -> List[Query]:
    """``rounds`` stream-mix rounds.  A round holds every (family,
    strategy) pair once, in an order shuffled by the round's index (see
    the module docstring); no SQL text repeats while a family's domain
    has unused values."""
    rng = random.Random(seed)
    seen: set = set()
    pairs = [(name, strategy) for name in FAMILIES for strategy in STRATEGIES]
    out: List[Query] = []
    for index in range(rounds):
        order = list(pairs)
        random.Random(index).shuffle(order)
        for name, strategy in order:
            for _ in range(_MAX_DRAWS):
                sql = FAMILIES[name](rng)
                if sql not in seen:
                    break
            seen.add(sql)
            out.append(Query(name, strategy, sql))
    return out


#: hot-cache: the handful of queries, as (family, strategy) slots.  The
#: small-result families always return rows (TPCH-17 one, TPCH-9 a few
#: dozen): an empty result is a single reply frame, a non-empty one two,
#: and the wire cost differs between the two.  Their replayed peak state
#: also barely depends on the literals, which keeps ``peak_state_mb``
#: comparable across seeds.  The order is fixed, with the two scans
#: apart: a six-query cycle of cache hits has no lumpy median to avoid.
HOT_SLOTS: Tuple[Tuple[str, str], ...] = (
    ("tpch17", "feedforward"), ("wide", "baseline"),
    ("tpch17", "costbased"), ("tpch9", "feedforward"),
    ("tpch17", "baseline"), ("wide", "costbased"),
)


def hot_set(seed: int) -> List[Query]:
    """The hot-cache working set: four small-result Table I queries and
    two ~2000-row scans, all distinct, in :data:`HOT_SLOTS` order."""
    rng = random.Random(seed)
    drawers = dict(FAMILIES, wide=_wide)
    seen: set = set()
    out: List[Query] = []
    for family, strategy in HOT_SLOTS:
        for _ in range(_MAX_DRAWS):
            sql = drawers[family](rng)
            if sql not in seen:
                break
        seen.add(sql)
        out.append(Query(family, strategy, sql))
    return out


def hot_stream(seed: int, rounds: int) -> List[Query]:
    """The hot set repeated ``rounds`` times (round 0 fills the cache)."""
    return hot_set(seed) * rounds


def serialize(queries: Sequence[Query]) -> bytes:
    """Canonical bytes of a query list (one JSON object per line)."""
    return b"".join(
        json.dumps(asdict(q), sort_keys=True).encode("utf-8") + b"\n"
        for q in queries
    )


def digest(queries: Sequence[Query]) -> str:
    """SHA-256 of :func:`serialize` — recorded in every run's output."""
    return hashlib.sha256(serialize(queries)).hexdigest()
