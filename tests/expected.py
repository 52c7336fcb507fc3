"""Frozen expected values used across the test suite.

Each constant was computed once with an independent method (stated next to
it) and is asserted bit-exactly against the library.
"""

# e_1..e_150 for the semigroup <3,5,7>; cross-computed by the elimination
# and the power-sum routes, which are independent implementations.
EXPONENTS_3_5_7 = (
    1, 0, -1, 0, -1, 0, -1, 0, 0, 1,
    0, 1, 0, 1, 0, 0, -1, 0, -1, 0,
    0, 1, 0, 1, 0, 1, -1, 0, -2, 0,
    -2, 1, -1, 3, 0, 3, -1, 3, -3, 1,
    -5, 1, -5, 3, -3, 7, -2, 8, -4, 7,
    -9, 4, -14, 6, -14, 12, -10, 22, -9, 25,
    -16, 23, -30, 17, -42, 23, -43, 41, -36, 66,
    -37, 76, -60, 73, -100, 66, -133, 91, -139, 148,
    -129, 219, -146, 252, -222, 252, -340, 255, -438, 346,
    -469, 524, -473, 731, -564, 846, -820, 887, -1183, 973,
    -1488, 1309, -1635, 1889, -1756, 2530, -2157, 2947, -3026, 3214,
    -4181, 3701, -5187, 4922, -5839, 6834, -6563, 8905, -8200, 10467,
    -11195, 11807, -14992, 14052, -18463, 18510, -21237, 24982, -24675, 31960,
    -31101, 37904, -41573, 43905, -54450, 53343, -66840, 69606, -78312, 91968,
    -93176, 116272, -117909, 139142, -155059, 164573, -199918, 202659, -245305, 262345,
)

# coefficient list of the semigroup polynomial of <4,6,9> (degree 12),
# derived from the gap set {1,2,3,5,7,11}
POLYNOMIAL_4_6_9 = (1, -1, 0, 0, 1, -1, 1, -1, 1, 0, 0, -1, 1)

# coefficient list for <3,5,7> (degree 5), gap set {1,2,4}
POLYNOMIAL_3_5_7 = (1, -1, 0, 1, -1, 1)

# e_1..e_18 for <4,6,9>: 1 at 1, -1 at the generators, +1 at 12 and 18
EXPONENTS_4_6_9_18 = (1, 0, 0, -1, 0, -1, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, 1)

# numbers of numerical semigroups per genus (A007323); entries up to
# genus 8 are re-derived in-suite by the gap-subset oracle
SEMIGROUPS_PER_GENUS = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592,
                        1001, 1693, 2857, 4806, 8045, 13467)

# build_report(SemigroupAnalysis(S)).to_json_dict() for a few semigroups,
# computed when each part of the report came from its own call
# (betti_elements, classify, exponent_sequence) rather than from one shared
# SemigroupAnalysis
REPORTS = {(1,): {'generators': [1],
        'frobenius': -1,
        'genus': 0,
        'betti': {},
        'exponent_prefix': ['0', '0'],
        'flags': {'betti_sorted': True,
                  'betti_divisible': True,
                  'unique_betti': False,
                  'betti_forest': True,
                  'e_forest': True},
        'verdicts': {}},
 (4, 6, 9): {'generators': [4, 6, 9],
             'frobenius': 11,
             'genus': 6,
             'betti': {'12': [2, 2], '18': [2, 1]},
             'exponent_prefix': ['1', '0', '0', '-1', '0', '-1', '0', '0', '-1', '0',
                                 '0', '1', '0', '0', '0', '0', '0', '1', '0', '0', '0',
                                 '0', '0', '0', '0', '0', '0', '0', '0', '0'],
             'flags': {'betti_sorted': True,
                       'betti_divisible': False,
                       'unique_betti': False,
                       'betti_forest': True,
                       'e_forest': True},
             'verdicts': {}},
 (3, 5, 7): {'generators': [3, 5, 7],
             'frobenius': 4,
             'genus': 3,
             'betti': {'10': [2, 2], '12': [2, 2], '14': [2, 2]},
             'exponent_prefix': ['1', '0', '-1', '0', '-1', '0', '-1', '0', '0', '1',
                                 '0', '1', '0', '1', '0', '0', '-1', '0', '-1'],
             'flags': {'betti_sorted': False,
                       'betti_divisible': False,
                       'unique_betti': False,
                       'betti_forest': True,
                       'e_forest': False},
             'verdicts': {}},
 (5, 6, 7): {'generators': [5, 6, 7],
             'frobenius': 9,
             'genus': 6,
             'betti': {'12': [2, 2], '20': [2, 2], '21': [2, 2]},
             'exponent_prefix': ['1', '0', '0', '0', '-1', '-1', '-1', '0', '0', '0',
                                 '0', '1', '0', '0', '0', '0', '0', '0', '0', '1', '1',
                                 '0', '0', '0'],
             'flags': {'betti_sorted': False,
                       'betti_divisible': False,
                       'unique_betti': False,
                       'betti_forest': True,
                       'e_forest': None},
             'verdicts': {}},
 (8, 12, 18, 25): {'generators': [8, 12, 18, 25],
                   'frobenius': 47,
                   'genus': 24,
                   'betti': {'24': [2, 2], '36': [2, 1], '50': [2, 1]},
                   'exponent_prefix': ['1', '0', '0', '0', '0', '0', '0', '-1', '0',
                                       '0', '0', '-1', '0', '0', '0', '0', '0', '-1',
                                       '0', '0', '0', '0', '0', '1', '-1', '0', '0',
                                       '0', '0', '0', '0', '0', '0', '0', '0', '1', '0',
                                       '0', '0', '0', '0', '0', '0', '0', '0', '0', '0',
                                       '0', '0', '1', '0', '0', '0', '0', '0', '0', '0',
                                       '0', '0', '0', '0', '0', '0', '0', '0', '0', '0',
                                       '0', '0', '0', '0', '0', '0', '0', '0', '0', '0',
                                       '0', '0', '0', '0', '0', '0', '0', '0', '0', '0',
                                       '0', '0', '0', '0', '0', '0', '0', '0', '0', '0',
                                       '0'],
                   'flags': {'betti_sorted': False,
                             'betti_divisible': False,
                             'unique_betti': False,
                             'betti_forest': True,
                             'e_forest': True},
                   'verdicts': {}}}

# run_verification(EnumerationJob("by-genus", 7), CHECKS).to_json_dict(),
# computed with the reports above, when every check ran its own pipeline;
# <1> is the known conj-msg counterexample
GENUS_7_ALL_CHECKS = {'mode': 'by-genus',
 'limit': 7,
 'filters': [],
 'checks': ['ci-cyclotomic', 'thm1', 'thm2', 'thm5.2', 'conj-msg', 'conj-betti'],
 'total': 89,
 'pass_counts': {'ci-cyclotomic': 89,
                 'conj-betti': 89,
                 'conj-msg': 89,
                 'thm1': 89,
                 'thm2': 89,
                 'thm5.2': 89},
 'counterexamples': [],
 'all_pass': True,
 'last_token': '1.3.5.7.9.11.13'}

# enumerate_by_frobenius(F) for F <= 25, captured from an earlier tree walk
# that built every child by closing its gap set's complement (the builder
# kept as oracles.semigroup_from_gaps): the count (OEIS A124506) and the first
# 16 hex digits of sha256(repr(sorted generator tuples))
FROBENIUS_FAMILIES = {
    1: (1, "506e77c7db3cda13"), 2: (1, "188b3e654c38a3bc"),
    3: (2, "da7b4f44443628c6"), 4: (2, "5636767bdca4a7ec"),
    5: (5, "fa7fc708c95d0dd8"), 6: (4, "49fddf32f9afd236"),
    7: (11, "94761e1146630eec"), 8: (10, "fadfb748d1ea688a"),
    9: (21, "cfc2a982ee074cd5"), 10: (22, "5cbca3ae5709379e"),
    11: (51, "69a5406d9f18474f"), 12: (40, "bd1212c98425be5f"),
    13: (106, "5521a0a1e6d8f186"), 14: (103, "1127b4344097c588"),
    15: (200, "f49ef853b72bb4cc"), 16: (205, "6c217e3ffe4c14c9"),
    17: (465, "bcc9aadf31177149"), 18: (405, "19af1c21ed6fc9bb"),
    19: (961, "54c7cabab5ade09f"), 20: (900, "d5c47d394cf508a8"),
    21: (1828, "465a96aa3448ce03"), 22: (1913, "cc5abe6755cab399"),
    23: (4096, "6f7894937c0d965b"),
    # captured from the recursive walk that built children with remove_generator
    24: (3578, "ae501847fa43da5e"), 25: (8273, "651ef7bb64d80cb5"),
}

# The walk order of enumerate_by_frobenius(F) for F <= 21: the first 16 hex
# digits of sha256(repr(generator tuples)) in the order the walk yields them,
# unsorted, captured from the recursive walk (depth-first preorder, children
# ascending in the removed generator)
FROBENIUS_WALK_ORDER = {
    1: "506e77c7db3cda13", 2: "188b3e654c38a3bc", 3: "38aea05243d6cf28",
    4: "50e602f3f808aa53", 5: "279cfa4825d14fec", 6: "6e69835b960f0183",
    7: "503161efa955b7ea", 8: "f969e74122eb4dc6", 9: "4eb631030d9bd81d",
    10: "e9c833f884d2d47a", 11: "05c260e5e4761f5e", 12: "c2c7dc0a82497d00",
    13: "1cf67aa9952b313e", 14: "94e680fdd82d7de8", 15: "9b8ba1cfbf753f33",
    16: "c2dfae107b59e966", 17: "b3afcb14f6ceb0ad", 18: "3e6858e6f2b112fc",
    19: "9d113ba45b628c90", 20: "84c8c0bed1024503", 21: "abee01100ece586f",
}

# Entries listed by children in enumerate_by_frobenius(F), of which only the
# members become objects, for F = 21..25: the distinct non-empty prefixes of
# the family's gap tuples, counted from the families above. The walk that
# listed every child up to the target listed 5343 / 7256 / 11352 / 14930 / 23203.
FROBENIUS_WALK_BUILT = {21: 3746, 22: 3943, 23: 8421, 24: 7241, 25: 16829}

# close_under calls by enumerate_by_frobenius(F) for F = 21..25, and by
# enumerate_by_genus(g_max) for g_max = 9 and 12. A mask is closed only when
# a later sibling reads it, and the genus walk's mask 0 never is. Closing
# after every built child, as the walk once did, made FROBENIUS_WALK_BUILT
# closures.
FROBENIUS_WALK_CLOSURES = {21: 1903, 22: 2021, 23: 4288, 24: 3658, 25: 8522}
GENUS_WALK_CLOSURES = {9: 0, 12: 0}

# The walk order of enumerate_by_genus(10): the count and the first 16 hex
# digits of sha256(repr(generator tuples)) in the order the walk yields them,
# unsorted, captured from the recursive walk that carried each node's path
GENUS_WALK_ORDER = (478, "16284b4eb247d32f")

# Byte-exact CLI exports, captured before the test-only oracles moved out of
# src/, for the commands that write files. Text outputs are literal; a JSON
# file is frozen as the value it holds, and test_exports.py renders it with
# the writer's layout (sorted keys, indent 2, final newline). `analyze --json`
# writes the build_report record, frozen in REPORTS above. `analyze --dot` and
# `betti --dot` both write the Hasse diagram of the Betti elements.
EXPORTS = {
    '1': {
        'analyze': (
            'generators: 1\n'
            'frobenius: -1   genus: 0   multiplicity: 1\n'
            'gaps: -\n'
            'symmetric: True\n'
            'cyclotomic: True\n'
            'complete intersection: True\n'
            'gluing tree: "N"\n'
            'betti elements: none\n'
            "classification: {'betti_sorted': True, 'betti_divisible': True, 'unique_betti': False, 'betti_forest': True, 'e_forest': True}\n"
            'exponents (2 entries): 0, 0\n'
        ),
        'betti': (
            'no betti elements\n'
            'forest: True\n'
            'chain-downset part: -\n'
        ),
        'betti.json': {'betti': {}, 'covers': [], 'forest': True},
        'hasse.dot': (
            'digraph hasse {\n'
            '}\n'
        ),
        'exponents': '0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0\n',
        'exponents.csv': '0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n',
        'exponents.json': ['0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0',
                           '0', '0', '0', '0', '0', '0', '0', '0'],
    },
    '3,5,7': {
        'analyze': (
            'generators: 3, 5, 7\n'
            'frobenius: 4   genus: 3   multiplicity: 3\n'
            'gaps: 1, 2, 4\n'
            'symmetric: False\n'
            'cyclotomic: False\n'
            'complete intersection: False\n'
            'betti elements (element: classes, isolated):\n'
            '  10: nc=2, isolated=2\n'
            '  12: nc=2, isolated=2\n'
            '  14: nc=2, isolated=2\n'
            "classification: {'betti_sorted': False, 'betti_divisible': False, 'unique_betti': False, 'betti_forest': True, 'e_forest': False}\n"
            'exponents (19 entries): 1, 0, -1, 0, -1, 0, -1, 0, 0, 1, 0, 1, 0, 1, 0, 0, -1, 0, -1\n'
        ),
        'betti': (
            '10: nc=2, isolated=2\n'
            '12: nc=2, isolated=2\n'
            '14: nc=2, isolated=2\n'
            'forest: True\n'
            'chain-downset part: 10, 12, 14\n'
        ),
        'betti.json': {'betti': {'10': [2, 2], '12': [2, 2], '14': [2, 2]},
                       'covers': [],
                       'forest': True},
        'hasse.dot': (
            'digraph hasse {\n'
            '  "10";\n'
            '  "12";\n'
            '  "14";\n'
            '}\n'
        ),
        'exponents': '1, 0, -1, 0, -1, 0, -1, 0, 0, 1, 0, 1, 0, 1, 0, 0, -1, 0, -1, 0\n',
        'exponents.csv': '1,0,-1,0,-1,0,-1,0,0,1,0,1,0,1,0,0,-1,0,-1,0\n',
        'exponents.json': ['1', '0', '-1', '0', '-1', '0', '-1', '0', '0', '1', '0',
                           '1', '0', '1', '0', '0', '-1', '0', '-1', '0'],
    },
    '4,6,9': {
        'analyze': (
            'generators: 4, 6, 9\n'
            'frobenius: 11   genus: 6   multiplicity: 4\n'
            'gaps: 1, 2, 3, 5, 7, 11\n'
            'symmetric: True\n'
            'cyclotomic: True\n'
            'complete intersection: True\n'
            'gluing tree: {\n'
            '  "a1": 2,\n'
            '  "a2": 9,\n'
            '  "left": {\n'
            '    "a1": 2,\n'
            '    "a2": 3,\n'
            '    "left": "N",\n'
            '    "right": "N"\n'
            '  },\n'
            '  "right": "N"\n'
            '}\n'
            'betti elements (element: classes, isolated):\n'
            '  12: nc=2, isolated=2\n'
            '  18: nc=2, isolated=1\n'
            "classification: {'betti_sorted': True, 'betti_divisible': False, 'unique_betti': False, 'betti_forest': True, 'e_forest': True}\n"
            'exponents (30 entries): 1, 0, 0, -1, 0, -1, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0\n'
        ),
        'betti': (
            '12: nc=2, isolated=2\n'
            '18: nc=2, isolated=1\n'
            'covers: 12->18\n'
            'forest: True\n'
            'chain-downset part: 12, 18\n'
        ),
        'betti.json': {'betti': {'12': [2, 2], '18': [2, 1]},
                       'covers': [[12, 18]],
                       'forest': True},
        'hasse.dot': (
            'digraph hasse {\n'
            '  "12";\n'
            '  "18";\n'
            '  "12" -> "18";\n'
            '}\n'
        ),
        'exponents': '1, 0, 0, -1, 0, -1, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0\n',
        'exponents.csv': '1,0,0,-1,0,-1,0,0,-1,0,0,1,0,0,0,0,0,1,0,0\n',
        'exponents.json': ['1', '0', '0', '-1', '0', '-1', '0', '0', '-1', '0', '0',
                           '1', '0', '0', '0', '0', '0', '1', '0', '0'],
    },
    '8,12,18,25': {
        'analyze': (
            'generators: 8, 12, 18, 25\n'
            'frobenius: 47   genus: 24   multiplicity: 8\n'
            'gaps: 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 27, 29, 31, 35, 39, 47\n'
            'symmetric: True\n'
            'cyclotomic: True\n'
            'complete intersection: True\n'
            'gluing tree: {\n'
            '  "a1": 2,\n'
            '  "a2": 25,\n'
            '  "left": {\n'
            '    "a1": 2,\n'
            '    "a2": 9,\n'
            '    "left": {\n'
            '      "a1": 2,\n'
            '      "a2": 3,\n'
            '      "left": "N",\n'
            '      "right": "N"\n'
            '    },\n'
            '    "right": "N"\n'
            '  },\n'
            '  "right": "N"\n'
            '}\n'
            'betti elements (element: classes, isolated):\n'
            '  24: nc=2, isolated=2\n'
            '  36: nc=2, isolated=1\n'
            '  50: nc=2, isolated=1\n'
            "classification: {'betti_sorted': False, 'betti_divisible': False, 'unique_betti': False, 'betti_forest': True, 'e_forest': True}\n"
            'exponents (98 entries): 1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0\n'
        ),
        'betti': (
            '24: nc=2, isolated=2\n'
            '36: nc=2, isolated=1\n'
            '50: nc=2, isolated=1\n'
            'covers: 24->36, 24->50\n'
            'forest: True\n'
            'chain-downset part: 24, 36, 50\n'
        ),
        'betti.json': {'betti': {'24': [2, 2], '36': [2, 1], '50': [2, 1]},
                       'covers': [[24, 36], [24, 50]],
                       'forest': True},
        'hasse.dot': (
            'digraph hasse {\n'
            '  "24";\n'
            '  "36";\n'
            '  "50";\n'
            '  "24" -> "36";\n'
            '  "24" -> "50";\n'
            '}\n'
        ),
        'exponents': '1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0, 0, -1, 0, 0\n',
        'exponents.csv': '1,0,0,0,0,0,0,-1,0,0,0,-1,0,0,0,0,0,-1,0,0\n',
        'exponents.json': ['1', '0', '0', '0', '0', '0', '0', '-1', '0', '0', '0', '-1',
                           '0', '0', '0', '0', '0', '-1', '0', '0'],
    },
}

ENUMERATE_GENUS_4 = (
    '1\n'
    '2,3\n'
    '3,4,5\n'
    '4,5,6,7\n'
    '5,6,7,8,9\n'
    '4,6,7,9\n'
    '4,5,7\n'
    '4,5,6\n'
    '3,5,7\n'
    '3,7,8\n'
    '3,5\n'
    '3,4\n'
    '2,5\n'
    '2,7\n'
    '2,9\n'
)
ENUMERATE_GENUS_4_JSON = {'count': 15,
                          'generators': [[1], [2, 3], [3, 4, 5], [4, 5, 6, 7],
                                         [5, 6, 7, 8, 9], [4, 6, 7, 9], [4, 5, 7],
                                         [4, 5, 6], [3, 5, 7], [3, 7, 8], [3, 5],
                                         [3, 4], [2, 5], [2, 7], [2, 9]]}

# stdout of `nsg enumerate --frobenius 9`, in walk order, captured from the
# recursive walk
ENUMERATE_FROBENIUS_9 = (
    '10,11,12,13,14,15,16,17,18,19\n'
    '8,10,11,12,13,14,15,17\n'
    '7,10,11,12,13,15,16\n'
    '7,8,10,11,12,13\n'
    '6,10,11,13,14,15\n'
    '6,8,10,11,13,15\n'
    '6,7,10,11,15\n'
    '6,7,8,10,11\n'
    '5,11,12,13,14\n'
    '5,8,11,12,14\n'
    '5,7,11,13\n'
    '5,7,8,11\n'
    '5,6,13,14\n'
    '5,6,8\n'
    '5,6,7\n'
    '5,6,7,8\n'
    '4,10,11,13\n'
    '4,7,10,13\n'
    '4,6,11,13\n'
    '4,6,7\n'
    '2,11\n'
)

# sha256 of the key-ordered JSON list, in enumeration order, of
# [generators, classification, Betti covers, support covers] per semigroup;
# frozen when the covers came from an O(n^3) transitive-reduction search
ORDER_DIGEST_GENUS_10 = "de008dd83f9c51a88f8adc3ea3c96292e972caa8be71a115eab2fb6a0db8f96c"
ORDER_DIGEST_FROBENIUS_21 = "51a430e067e9f66183d56d44770c0c7199def80bded10a442a2b2a5c8a7f591a"

# sha256 of the JSON list, in enumeration order, of
# verify_theorems(S, bound).to_json_dict() over genus <= 8, at the default
# bound and at the default bound + 7; frozen when the four checks came from
# one theorem report and symmetric semigroups swept their exponents twice
THEOREM_DIGESTS_GENUS_8 = {
    0: "0359d0951f4984ece62b12e5a6c39510834148742bf7f37662e4b1fa80158d61",
    7: "e7c854f2d45b8b423701fefddd921cda73e2a5bebce3f3c97fa1db9017a8b230",
}

# ci_with_frobenius(F) for every odd F <= 151 and for F = 201, 301, captured
# from the recursion that built a complete intersection once per gluing that
# reaches it: the count and the first 16 hex digits of
# sha256(repr(sorted generator tuples))
CI_FAMILIES = {
    1: (1, "506e77c7db3cda13"), 3: (1, "7326361bec2c884e"),
    5: (2, "eb9b68b3015df2bd"), 7: (3, "72e39c910c954cab"),
    9: (2, "73a89c6e68b37af2"), 11: (4, "c8e906018a489cef"),
    13: (5, "11e3f381b419ea1c"), 15: (3, "cc10c98bc4abbfaa"),
    17: (7, "543ed53f7918d720"), 19: (8, "4a3d2016138752a1"),
    21: (5, "345f9753d9ae5804"), 23: (11, "33ab522212d5f0a5"),
    25: (11, "bd32109ab798fc1e"), 27: (9, "54585fa6917115e7"),
    29: (14, "e08e8a7a3e1002ea"), 31: (17, "6ba7a94add2ff25b"),
    33: (12, "16152708b1164947"), 35: (18, "10400ad05a5e756a"),
    37: (24, "cd47b4dfd2456b79"), 39: (16, "28fab76fccef81f2"),
    41: (27, "45c3e0d82af8d4d2"), 43: (31, "ff8c47bc54d5b3d2"),
    45: (21, "1162d76999df1e7f"), 47: (36, "33dc67ab6fcc1122"),
    49: (38, "74afe1a7c166303e"), 51: (27, "acf0d712ef0e64b0"),
    53: (46, "0e5f16c19cd39a58"), 55: (45, "2c7c70cecba800bb"),
    57: (34, "e55e4f26d8865b24"), 59: (57, "dea059adfc552085"),
    61: (62, "a3ecf452aa0a9d1d"), 63: (43, "efd5bd2933d0f47a"),
    65: (65, "b79b285b688e13fd"), 67: (77, "9a722eeb56c85e76"),
    69: (53, "58373f4a401e460a"), 71: (84, "4f6441761c108cb7"),
    73: (90, "ae2bde6225c500aa"), 75: (61, "581c792e5b0d906e"),
    77: (100, "d0efe4b564452083"), 79: (110, "86bc1e9f01144b4d"),
    81: (80, "ffe36af853137a2b"), 83: (122, "fb21b6be6bf5cc66"),
    85: (120, "abd1b26269bdd83d"), 87: (94, "b5cce8c8c37d8df4"),
    89: (143, "1fb89b719f118e26"), 91: (151, "167463dd7dc44453"),
    93: (108, "d6678404a82105eb"), 95: (158, "56801f60f5610681"),
    97: (179, "a91457c5fe811875"), 99: (128, "a78144113782d0d6"),
    101: (197, "5a3d9bbed6a81852"), 103: (209, "7a3b1350b025c398"),
    105: (142, "ef104fe83e0258e7"), 107: (229, "e3845143a103521b"),
    109: (238, "73b8e5fbe2a91db0"), 111: (172, "87bd98d09d7eced4"),
    113: (264, "660790dea00cb139"), 115: (259, "0ee35838b9367696"),
    117: (202, "0d972cab5f595124"), 119: (294, "6fb94c22893b637d"),
    121: (311, "8a1403d5111193e7"), 123: (231, "2bab8a322d4715a2"),
    125: (328, "d0d75116ff59e93f"), 127: (362, "5275ca2a4ed1780f"),
    129: (259, "715806266a1d435b"), 131: (392, "6996a5728de755ef"),
    133: (399, "1d77b5e9a0403aba"), 135: (291, "12ccf4bfbb74be08"),
    137: (442, "174e97208af0b902"), 139: (454, "20fa30a26e6ae8db"),
    141: (332, "e1b331bd7d24a705"), 143: (489, "f611ee3c41142781"),
    145: (488, "89de106e0dd06bd4"), 147: (371, "398a67ea5dbd4b55"),
    149: (554, "2e35e2f1f679dadf"), 151: (576, "20a94b76cfb768a1"),
    201: (955, "220566e886f73702"), 301: (4760, "0e49fe7537f8766f"),
}

# sha256 of json.dumps of the list of [generators, gluing_decompose(S).to_json()
# or None], with the count of entries: over ci_with_frobenius(F) for odd
# F <= 151 in ascending F, each family in its returned order, and over
# enumerate_by_genus(10) in walk order (441 of the 478 have no tree); captured
# when the decomposition tried each split in both orientations
GLUING_TREES = {
    "ci-frobenius-151": (11048, "4aeda34488fc9de437e11e20d2808fc0b2ff69262a220d25288472c90a3f96b1"),
    "genus-10": (478, "c559fbe338c3dbd6fa4a231877cdcaf37ae78599b6d2235e8e7cf03a160ac38e"),
}

# sha256 of the file `nsg verify ... --json PATH` writes, for the families of
# the three benchmark workloads, each check list in CHECKS order; captured
# when only by-genus runs wrote a resume token, so the two by-Frobenius
# digests are of the file with its last_token set to null
VERIFY_JSON = {
    ("--genus-max", "9", "--checks", "ci-cyclotomic,thm1,thm2,thm5.2,conj-msg,conj-betti"):
        "b1dbdf5df4a56cf37697c518c77a1ef4f218756220ae4b779c1795e8ceb699c6",
    ("--frobenius", "23", "--checks", "conj-msg,conj-betti"):
        "07d9fa230cb70b1acd367585e1de19ab6d5d9641b8c740c0ce9bc70eb96f8310",
    ("--frobenius", "81", "--filter", "ci", "--checks", "ci-cyclotomic,conj-msg,conj-betti"):
        "a8007e37c1ae2804f5a1ecb19a4ca518f1dada0271fbb52e1cba7c231ea1158a",
}

# The last_token of each summary above: the last member's gap tuple.
VERIFY_LAST_TOKEN = dict(
    zip(
        VERIFY_JSON,
        [
            "1.3.5.7.9.11.13.15.17",
            "1.3.5.7.9.11.13.15.17.19.21.23",
            "1.2.3.4.5.6.7.8.9.10.11.12.13.14.15.17.18.19.20.21.25.26.27.29.30.31.33.34.35.36"
            ".37.41.42.43.49.53.57.58.59.65.81",
        ],
        strict=True,
    )
)
