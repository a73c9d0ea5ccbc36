"""Class candidates in Z[L] and executable congruence verdicts.

Counting points specializes the Lefschetz class L to q, so polynomial
identities in L become integer identities checkable per prime. Everything
here either produces an exact verdict or an interpolated class candidate
that survived held-out primes; nothing is ever fitted silently. Every
count takes its method, budget and workers from the enclosing
counting.shared_counts(opts) block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .counting import (
    CountRecord,
    check_count_budget,
    count_Z,
    count_graph,
    shared_counts,
)
from .graphs import (
    EdgeKind,
    Multigraph,
    classify_edge,
    delete_edge,
    graph_id,
    has_non_loop_edge,
    is_forest,
)
from .primes import first_primes, require_primes


class InsufficientPrimesError(ValueError):
    pass


@dataclass(frozen=True)
class ClassPoly:
    """Polynomial in L with integer coefficients, ascending powers."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> "ClassPoly":
        return cls(())

    @classmethod
    def one(cls) -> "ClassPoly":
        return cls((1,))

    @classmethod
    def lefschetz(cls) -> "ClassPoly":
        return cls((0, 1))

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def constant_term(self) -> int:
        return self.coefficients[0] if self.coefficients else 0

    def evaluate(self, q: int) -> int:
        total = 0
        for c in reversed(self.coefficients):
            total = total * q + c
        return total

    def __add__(self, other: "ClassPoly") -> "ClassPoly":
        width = max(len(self.coefficients), len(other.coefficients))
        a = self.coefficients + (0,) * (width - len(self.coefficients))
        b = other.coefficients + (0,) * (width - len(other.coefficients))
        return ClassPoly(tuple(x + y for x, y in zip(a, b)))

    def __mul__(self, other: "ClassPoly") -> "ClassPoly":
        if not self.coefficients or not other.coefficients:
            return ClassPoly(())
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return ClassPoly(tuple(out))

    def __pow__(self, k: int) -> "ClassPoly":
        if k < 0:
            raise ValueError(f"negative power {k}: Z[L] has no inverse of L")
        out = ClassPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def to_text(self) -> str:
        """Descending powers: "L^3 - L^2", "L - 1", "1", "0"."""
        if not self.coefficients:
            return "0"
        pieces = []
        for power in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            if power == 0:
                body = str(abs(c))
            else:
                head = "L" if power == 1 else f"L^{power}"
                body = head if abs(c) == 1 else f"{abs(c)}*{head}"
            pieces.append((c < 0, body))
        neg, body = pieces[0]
        out = ("-" if neg else "") + body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def to_json_obj(self) -> dict:
        return {"coefficients": list(self.coefficients), "text": self.to_text()}


@dataclass(frozen=True)
class NotPolynomiallyConsistent:
    """Interpolation refused: the counts are not consistent with a single
    integer polynomial in q across the supplied primes. A reportable
    outcome, not an error."""

    graph: str
    reason: str
    data: tuple = ()

    def to_json_obj(self) -> dict:
        return {
            "graph": self.graph,
            "not_polynomially_consistent": True,
            "reason": self.reason,
            "data": [list(row) for row in self.data],
        }


@dataclass(frozen=True)
class CongruenceVerdict:
    """One executable identity at a batch of primes.

    observed holds (q, observed_value, expected_value) triples; the verdict
    passes when every pair agrees. Vacuous verdicts (hypotheses not met)
    carry applicable=False and no rows, so they pass trivially.
    """

    graph: str
    tag: str  # modL | Lrat | dc-bridge | dc-loop | dc-regular
    expected: str
    observed: tuple[tuple[int, int, int], ...]
    applicable: bool = True
    edge: int | None = None

    @property
    def passed(self) -> bool:
        return all(obs == exp for _, obs, exp in self.observed)

    def to_json_obj(self) -> dict:
        obj = {
            "graph": self.graph,
            "tag": self.tag,
            "expected": self.expected,
            "observed": [list(row) for row in self.observed],
            "pass": self.passed,
            "applicable": self.applicable,
        }
        if self.edge is not None:
            obj["edge"] = self.edge
        return obj


def _counts(g: Multigraph, primes: Sequence[int]) -> dict[int, CountRecord]:
    """count_graph at each validated prime, ascending, after checking every
    prime's budget: a count the budget refuses fails before any sweep runs.
    The counts share one shared_counts() block, so psi is built once."""
    qs = sorted(primes)
    for q in qs:
        check_count_budget(g, q)
    with shared_counts():
        return {q: count_graph(g, q) for q in qs}


def _name(g: Multigraph, graph_name: str | None) -> str:
    return graph_name if graph_name is not None else graph_id(g)


def predicted_sb_constant(g: Multigraph) -> int:
    """Constant the complement count must hit mod q: 0 once any non-looping
    edge exists, else (-1)^n for a pure bouquet of n loops (n=0 gives 1)."""
    if has_non_loop_edge(g):
        return 0
    return -1 if g.edge_count % 2 else 1


def check_modL_congruence(
    g: Multigraph,
    primes: Sequence[int],
    *,
    graph_name: str | None = None,
) -> CongruenceVerdict:
    """|Y_G(F_q)| mod q against the predicted constant, at every prime."""
    constant = predicted_sb_constant(g)
    return CongruenceVerdict(
        graph=_name(g, graph_name),
        tag="modL",
        expected=f"{constant} mod q",
        observed=tuple(
            (q, rec.complement_count % q, constant % q)
            for q, rec in _counts(g, require_primes(primes)).items()
        ),
    )


def check_projective_congruence(
    g: Multigraph,
    primes: Sequence[int],
    *,
    graph_name: str | None = None,
) -> CongruenceVerdict:
    """|X_G(F_q)| = 1 mod q for non-forests with a non-looping edge.

    Outside those hypotheses the verdict is inapplicable (vacuously true):
    forests have no projective hypersurface, and pure loop bouquets
    genuinely violate the congruence. The primes are validated either way.
    """
    primes = require_primes(primes)
    applicable = not is_forest(g) and has_non_loop_edge(g)
    counts = _counts(g, primes) if applicable else {}
    return CongruenceVerdict(
        graph=_name(g, graph_name),
        tag="Lrat",
        expected="1 mod q",
        observed=tuple((q, rec.projective_count % q, 1) for q, rec in counts.items()),
        applicable=applicable,
    )


# Edge kind -> (verdict tag, the identity it checks).
_DC_IDENTITY = {
    EdgeKind.BRIDGE: ("dc-bridge", "|Y| = q*|Y_del|"),
    EdgeKind.LOOP: ("dc-loop", "|Y| = (q-1)*|Y_del|"),
    EdgeKind.REGULAR: ("dc-regular", "|Y| = q*(q^(n-1) - |Z|) - |Y_del|"),
}


def _dc_verdict(
    g: Multigraph, label: int, counts: dict[int, CountRecord], name: str
) -> CongruenceVerdict:
    """The deletion-contraction verdict of one edge, one row per prime of
    counts, the table {q: count_graph(g, q)} that gives each row's left
    side. The edge is classified and deleted once for all the rows."""
    kind = classify_edge(g, label)
    minor = delete_edge(g, label)
    n = g.edge_count
    rows = []
    for q, rec in counts.items():
        y_del = count_graph(minor, q).complement_count
        if kind is EdgeKind.BRIDGE:
            rhs = q * y_del
        elif kind is EdgeKind.LOOP:
            rhs = (q - 1) * y_del
        else:
            rhs = q * (q ** (n - 1) - count_Z(g, label, q)) - y_del
        rows.append((q, rec.complement_count, rhs))
    tag, expected = _DC_IDENTITY[kind]
    return CongruenceVerdict(name, tag, expected, observed=tuple(rows), edge=label)


def dc_identity_check(
    g: Multigraph,
    edge_label: int,
    q: int,
    *,
    graph_name: str | None = None,
) -> CongruenceVerdict:
    """Exact integer deletion-contraction identity for one edge, one prime.

    Bridge: |Y_G| = q*|Y_del|. Loop: (q-1)*|Y_del|. Regular:
    q*(q^(n-1) - |Z|) - |Y_del|, with Z the common zero locus of the two
    minor polynomials. An unknown label is refused (UnknownLabelError)
    before any count. Inside shared_counts() a count of any graph
    isomorphic to one counted before, and Z at any edge that corresponds
    to the one G's count is fibered at, are memo hits, not new sweeps.
    """
    g.edge_by_label(edge_label)  # UnknownLabelError before any count
    return _dc_verdict(g, edge_label, {q: count_graph(g, q)}, _name(g, graph_name))


@shared_counts()
def dc_identity_matrix(
    g: Multigraph,
    primes: Sequence[int],
    *,
    graph_name: str | None = None,
) -> list[CongruenceVerdict]:
    """One verdict per edge, a row per prime, every row's left side read
    from one table of g's counts (_counts), whose budget checks come
    before any sweep. Each edge is classified and deleted once."""
    name = _name(g, graph_name)
    counts = _counts(g, require_primes(primes))
    return [_dc_verdict(g, e, counts, name) for e in g.labels]


def _integer_fit(points: list[tuple[int, int]]) -> list[int] | None:
    """Coefficients (ascending) of the unique degree < len(points) polynomial
    through the given (x, y) pairs, or None when one is not an integer.

    Newton's divided differences in integers: those of a polynomial with
    integer coefficients at integer points are integers, and integer
    differences expand to integer coefficients, so the first inexact
    division shows exactly that the interpolant is not in Z[x]."""
    xs = [x for x, _ in points]
    column = [y for _, y in points]
    newton = column[:1]
    for k in range(1, len(xs)):
        higher = []
        for i in range(len(column) - 1):
            quotient, rest = divmod(column[i + 1] - column[i], xs[i + k] - xs[i])
            if rest:
                return None
            higher.append(quotient)
        column = higher
        newton.append(column[0])
    coeffs: list[int] = []
    for c, x in zip(reversed(newton), reversed(xs)):  # coeffs * (t - x) + c
        coeffs = [0, *coeffs]
        for d in range(1, len(coeffs)):
            coeffs[d - 1] -= x * coeffs[d]
        coeffs[0] += c
    return coeffs


def interpolate_class(
    g: Multigraph,
    primes: Sequence[int] | None = None,
    *,
    graph_name: str | None = None,
) -> ClassPoly | NotPolynomiallyConsistent:
    """Candidate class in Z[L] from complement counts at several primes.

    Interpolates a degree <= n polynomial through the first n+1 counts in
    exact integers (_integer_fit), demanding integer coefficients, then
    agreement at at least two held-out primes. Any miss returns
    NotPolynomiallyConsistent with the evidence; a returned polynomial is
    a candidate, not a proof.

    With primes=None the first n+3 primes >= 3 are used.
    """
    n = g.edge_count
    if primes is None:
        primes = first_primes(n + 3)
    qs = sorted(require_primes(primes))
    if len(qs) < n + 3:
        raise InsufficientPrimesError(
            f"need at least {n + 3} primes for {n} edges, got {len(qs)}"
        )
    counts = [(q, rec.complement_count) for q, rec in _counts(g, qs).items()]
    fitted = _integer_fit(counts[: n + 1])
    if fitted is None:
        return NotPolynomiallyConsistent(
            graph=_name(g, graph_name),
            reason="interpolant has non-integer coefficients",
            data=tuple(counts),
        )
    candidate = ClassPoly(tuple(fitted))
    for q, y in counts[n + 1 :]:
        predicted = candidate.evaluate(q)
        if predicted != y:
            return NotPolynomiallyConsistent(
                graph=_name(g, graph_name),
                reason=f"held-out prime {q}: predicted {predicted}, counted {y}",
                data=tuple(counts),
            )
    return candidate


def hodge_form(c: ClassPoly) -> tuple[int, ClassPoly]:
    """Split c = constant + L*tail.

    The constant is the candidate image in the quotient by (L); for graph
    classes it must land in {0, +1, -1} and match predicted_sb_constant.
    """
    return c.constant_term(), ClassPoly(c.coefficients[1:])
