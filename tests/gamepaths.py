"""Play one game through both paths of games.run_game.

run_game decides a NonAdaptiveDistinguisher a block of trials at a time
when the sampler has a numpy twin, and trial by trial when it has none.
per_trial(sampler) hides the twin, so the same game, with the same
queries and decision rule, is forced down the per-trial path. Each path
records the answers its decisions saw, so two runs agree only if every
trial of both worlds saw the same answers in the same order. Both must
also see the answers of each trial's oracle keyed once straight from its
game stream and asked the queries in order, so that a sampler without a
numpy twin, which both runs play trial by trial, is still checked
against a reference outside the runner.
"""

from cuckooprf.games import IDEAL_WORLD, REAL_WORLD, NonAdaptiveDistinguisher, game_streams, run_game


def per_trial(sampler):
    """The same sampler without a numpy twin, so run_game plays it trial
    by trial."""
    return lambda rng: sampler(rng)


def play(real, ideal, dist: NonAdaptiveDistinguisher, trials: int, seed: int):
    """(result, answers seen) of dist's game."""
    seen = []

    def decide(values):
        seen.extend(values.tolist())
        return dist.decide(values)

    spy = NonAdaptiveDistinguisher(dist.queries, decide)
    return run_game(real, ideal, spy, trials, seed), seen


def assert_paths_agree(real, ideal, dist, trials: int, seed: int):
    """Both paths agree with each other and with the reference answers;
    returns the game's result."""
    fast = play(real, ideal, dist, trials, seed)
    slow = play(per_trial(real), per_trial(ideal), dist, trials, seed)
    assert fast == slow
    assert slow[1] == [reference_answers(sampler, game_streams(seed, world).stream(t), dist.queries)
                       for world, sampler in ((REAL_WORLD, real), (IDEAL_WORLD, ideal))
                       for t in range(trials)]
    return fast[0]


def reference_answers(sampler, rng, queries) -> list[int]:
    """The answers of the one oracle that sampler keys from rng, asked
    the queries in order."""
    oracle = sampler(rng)
    return [oracle.query(x).value for x in queries]
