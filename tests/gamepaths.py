"""Play one game through both paths of games.run_game.

run_game answers a plain NonAdaptiveDistinguisher a block of trials at a
time and plays any other distinguisher trial by trial. A subclass that
overrides run is no longer plain, so it forces the per-trial path with
the same queries and decision rule. Each path records the answers its
decisions saw, so two runs agree only if every trial of both worlds saw
the same answers in the same order. Both must also see the answers of each
trial's oracle keyed straight from its game stream, so that a sampler
without a numpy twin, which both runs play trial by trial, is still
checked against a reference outside the runner.
"""

from cuckooprf.games import IDEAL_WORLD, REAL_WORLD, NonAdaptiveDistinguisher, game_streams, run_game


class PerTrial(NonAdaptiveDistinguisher):
    """A nonadaptive distinguisher that run_game plays trial by trial."""

    def run(self, query) -> bool:
        return super().run(query)


def play(cls, real, ideal, dist: NonAdaptiveDistinguisher, trials: int, seed: int):
    """(result, answers seen) of dist's rule rebuilt as a cls instance."""
    seen = []

    def decide(answers):
        seen.append([a.value for a in answers])
        return dist.decide(answers)

    def decide_batch(values):
        seen.extend(values.tolist())
        return dist.decide_batch(values)

    twin = cls(dist.queries, decide, dist.allow_repeats,
               decide_batch if dist.decide_batch is not None else None)
    return run_game(real, ideal, twin, trials, seed), seen


def assert_paths_agree(real, ideal, dist, trials: int, seed: int):
    fast = play(NonAdaptiveDistinguisher, real, ideal, dist, trials, seed)
    slow = play(PerTrial, real, ideal, dist, trials, seed)
    assert fast == slow
    assert slow[1] == [[sampler(game_streams(seed, world).stream(t)).query(x).value
                        for x in dist.queries]
                       for world, sampler in ((REAL_WORLD, real), (IDEAL_WORLD, ideal))
                       for t in range(trials)]
