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

# build_report(S).to_json_dict() for a few semigroups, computed when each part
# of the report came from its own call (betti_elements, classify,
# exponent_sequence) rather than from one shared SemigroupAnalysis
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

# enumerate_by_frobenius(F) for F <= 23, captured from the tree walk that
# built every child with from_gaps: the count (OEIS A124506) and the first 16
# hex digits of sha256(repr(sorted generator tuples))
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
}

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
