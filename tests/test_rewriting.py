"""Rewriting engine tests.

Golden completion digests pin the completed rules, in order and with their
tails, and the normal-form blocks of every algebra family the package
builds: the shared corpus, loop-star normal forms Omega(n), the comparison
algebras A(n) and 30 seeded random graphs of 3 to 30 edges, over Q and
GF(2).  Any change to the completion (its indexes included) must leave
them as they are.

A seeded property test adds rules with fresh leads in random order and
checks every indexed lookup of ``RewriteSystem`` against a brute-force scan
of ``rules`` after each step.

An oracle keeps the completion loop over a plain dict of rules that
resolves every pair of leads, monomial pairs included, and interreduces:
overlaps, factors and stale rules are all found by brute force.
``complete`` must give the same rules, in order and with their tails, and the
same ``truncated`` flag on seeded relation sets over Q, GF(2) and GF(3), at
bounds small enough to truncate and large enough to finish, and on
benchmark-sized presentations at their ceiling bound.  On a relation set
that makes the oracle interreduce, ``complete`` must raise
``InclusionAmbiguity`` instead.

Every relation the package builds is binomial, so every completed rule has
at most one tail term; ``complete`` refuses a relation of three terms.
"""
import hashlib
import heapq
import re
from fractions import Fraction
from random import Random

import pytest

from brauer_derive.algebra import (
    _default_bounds,
    _relation_combos,
    a_n_presentation,
    omega_relations,
    quotient_basis,
)
from brauer_derive.graph import loop_star
from brauer_derive.linalg import QQ, PrimeField, vec_add_scaled
from brauer_derive.quiver import build_quiver
from brauer_derive.rewriting import (
    InclusionAmbiguity,
    NonBinomialRelation,
    NotAdmissible,
    RewriteSystem,
    complete,
)

from conftest import corpus_graphs, word, word_ids
from test_random_graphs import random_one_loop_graph


def golden_presentations():
    """name -> builder of the presentation, for every pinned algebra."""
    out = {
        name: (lambda g=g: omega_relations(build_quiver(g)))
        for name, g in corpus_graphs().items()
    }
    for n in (1, 4, 9, 36, 59):
        out[f"omega_{n}"] = lambda n=n: omega_relations(build_quiver(loop_star(n)))
    for n in (1, 3, 9, 14):
        out[f"an_{n}"] = lambda n=n: a_n_presentation(n)
    for s in range(30):
        edges = 3 + s * 27 // 29
        out[f"random_{s}_{edges}"] = lambda s=s, edges=edges: omega_relations(
            build_quiver(random_one_loop_graph(Random(s), edges))
        )
    return out


FIELDS = {"Q": QQ, "GF2": PrimeField(2)}

# "presentation/field": (SHA-256 of repr(list(rules.items())), of repr(blocks)),
# with every word written as its tuple of arrow ids and every Q tail
# coefficient as a Fraction (see ``_pinned_rules`` and ``_pinned_blocks``)
COMPLETION_DIGESTS = {
    "g_min/Q": ("8faad153a5aab7690074cb7ede15c92e3468c0be58974269200507dd34736ae4", "6014daab18a85e25ed4a553f725f0d374a4f55116d651543620b12070953a984"),
    "g_min/GF2": ("2d6cabd6da847bd466e2b655d86facfb6eff444ed5cd5efb56cf64c9fc925ed0", "6014daab18a85e25ed4a553f725f0d374a4f55116d651543620b12070953a984"),
    "chain2/Q": ("d3d47ebb6c9030539dde7b5c00c6124029da03e977a84a5722b204572f44282b", "3c9f90a004280fb18d740d0bd7810cd5e2184de9ab8d1b0b8ed9805250763f53"),
    "chain2/GF2": ("cd2bf4825bdc5263ceda003597fa536775f992be5ff361c0dac6c6e2f0ee161b", "3c9f90a004280fb18d740d0bd7810cd5e2184de9ab8d1b0b8ed9805250763f53"),
    "two_tree/Q": ("85a3119426cf2e79306121d858185eced58665af3f02644bb1d54f6d24f974f1", "5d621532c958d86ffefd6516b35dec429e8bbc97f58954ebaa6ef8330266e499"),
    "two_tree/GF2": ("ec28fa5002d9703afac8fc6a86a2b927539d62d13d16a57221d007e8f8d95707", "5d621532c958d86ffefd6516b35dec429e8bbc97f58954ebaa6ef8330266e499"),
    "branch/Q": ("e210903a0ccbc71cf6a727098547be3f210f34c00a349da7ac398479ab9eaf16", "0492aefcf3e565d308da0f049bf6c9336e01788630f727085ef08362c1b1056b"),
    "branch/GF2": ("ebc873862e2d4abd0480c12b71d59de877951f02ae739b70d1c8d5cb8364f53d", "0492aefcf3e565d308da0f049bf6c9336e01788630f727085ef08362c1b1056b"),
    "mixed7/Q": ("e00b4453528b6a63d510c768a7f7f055c2521d5e19b69daa6ff440a83914b633", "c121dd5b03292949614e3bb6552fcc58e528bc27b372c1f9441f1a399b49126f"),
    "mixed7/GF2": ("e74c9e071c56b47a6ffc6fe6f07d998aea2b558b3acc0b5145dd4006fd7ba937", "c121dd5b03292949614e3bb6552fcc58e528bc27b372c1f9441f1a399b49126f"),
    "wide8/Q": ("ff516f753a7aeee731d14447212fb8fbcc21d281e295a3ad78170de0377bef8b", "95a34f52992d2395a455a15ef676a27b4461f70efd72be53c96de6fc5a1923d3"),
    "wide8/GF2": ("3b4e66b47dea71de67fdbb451874a34d9cdbdd3d702f7b483a070cf070df3b44", "95a34f52992d2395a455a15ef676a27b4461f70efd72be53c96de6fc5a1923d3"),
    "loop_star_3/Q": ("bdff9b5d1b53a4bfa360d708a3f75f18c6557640b90a396fb3c2a2c5af3bff3c", "e4d46333974fa23bedea419140b3410114763970f0c7851f76de2460d58d2dd2"),
    "loop_star_3/GF2": ("050c68780a5808400744cb9a073cc51b9b8a4cb672052a01b4720eb98d0b78ce", "e4d46333974fa23bedea419140b3410114763970f0c7851f76de2460d58d2dd2"),
    "loop_star_5/Q": ("155c7fb1ecb8a0fdaedd84001bd982d3ee33221b45f11a8aea52af46218a005b", "dfbf9d0eb58663d17e6451eaf55d8dcb7770b7c7eb7c1549deb4213e73dd2e99"),
    "loop_star_5/GF2": ("a638b301478e0b55b8a0879e01b1c9f4a4dd945ec3ffa2e1cb1c99b371a07b21", "dfbf9d0eb58663d17e6451eaf55d8dcb7770b7c7eb7c1549deb4213e73dd2e99"),
    "loop_star_8/Q": ("318aa121001753b25ff555b34bdff895208793b9c919a07b7c4010f0d5be6c9f", "7e9f23e2981ae7fd9701a3e0b7c92951f64daf91a45a8753135df57164c722f6"),
    "loop_star_8/GF2": ("897e2772dd92ede47671322ac6f984a21c7cfb714c3e8c646492c1052f254b03", "7e9f23e2981ae7fd9701a3e0b7c92951f64daf91a45a8753135df57164c722f6"),
    "omega_1/Q": ("b6f89930c7ef2a3478716dabd607afa7641acdec9f4f509471caadaa83a31606", "15904d5913e181962f8e4bdabe24f80be00515782c543467328993f2a0f237ca"),
    "omega_1/GF2": ("b29db3c6a56a3744188c546d8e0a3c3b6dd1ac438fc4634f64cbd64d0f29dd14", "15904d5913e181962f8e4bdabe24f80be00515782c543467328993f2a0f237ca"),
    "omega_4/Q": ("150fbbf05a311757a02d766c5427bb3ad68e6069348e11627ecfa3eb83c62c12", "a3609ab719d9ba0b2629d27b0a7d24b4bb5ab1137948a412223f4c5388824ed8"),
    "omega_4/GF2": ("2e05add3bc4d29623de3a075f9bad3ac44f981041e2d015338491db236effd4c", "a3609ab719d9ba0b2629d27b0a7d24b4bb5ab1137948a412223f4c5388824ed8"),
    "omega_9/Q": ("a91364a46ccc71a884af538315f9cb444f458a505b85da82578b5d72697fd0e6", "668510db0aa29a9f2cefbdd8d519119cd24e4d1f12956fdc9413c8f0cf4b4b36"),
    "omega_9/GF2": ("5a9c2c220a967f6039e8e562293bec4d5124d3c9962174b6b41ad1ae6011411f", "668510db0aa29a9f2cefbdd8d519119cd24e4d1f12956fdc9413c8f0cf4b4b36"),
    "omega_36/Q": ("50bf81be254d82b570449bff59ce87cff015220f98faf2cc4b301af48d0fe8c9", "7562f3732875e44f194b7239b72ceb932edadede5e7a539918a56c05c9714285"),
    "omega_36/GF2": ("1bbd432bcbf60b43549be1f6a69eea48318e6b94633c404c55171278759b1e21", "7562f3732875e44f194b7239b72ceb932edadede5e7a539918a56c05c9714285"),
    "omega_59/Q": ("b59d981858de71c0a8ecfd57409c11a8ad57686fe90819ac9d19387a7a11cfed", "7c97bdf767d3782d99159f549497eff2cfda600e5aa3a989a50b98fd5d3eaede"),
    "omega_59/GF2": ("9eef7c50e59ed4caccc416bb8687a352a84a83527e0198d94c7fc6dfddc1000c", "7c97bdf767d3782d99159f549497eff2cfda600e5aa3a989a50b98fd5d3eaede"),
    "an_1/Q": ("31e9a36ef9ce721d0c2660fcd2196f00f155aa245acd9847701b7118df81f775", "15904d5913e181962f8e4bdabe24f80be00515782c543467328993f2a0f237ca"),
    "an_1/GF2": ("f0519a90406f514a3b7008e71c7131409293c6353acefc972e5f877faadd9ba3", "15904d5913e181962f8e4bdabe24f80be00515782c543467328993f2a0f237ca"),
    "an_3/Q": ("79e7e9d4e0386a9d5a47e7d3a6f1c193f4fd5de3f48f2901a3fdc3d061b3e50c", "5e64dbed0bd68220039f0f285af647d0a137eb157c8e9ad7a98cdc086b326fa1"),
    "an_3/GF2": ("748bd94387555a3ac2dc908ffbbaadbf82d2deffeab92ff78f48f85409ab9189", "5e64dbed0bd68220039f0f285af647d0a137eb157c8e9ad7a98cdc086b326fa1"),
    "an_9/Q": ("ffaea7ac68bc59600f7f802e49794481bda3800b4ca0722ddbe2444f8b8b6f1d", "139e91f825f31f20e65d61c671c3f6af36d7374cccc69229142a7770954b9671"),
    "an_9/GF2": ("74c607b55c4ece7207c35418040770e178d975cca889383981df6e3d074a9b85", "139e91f825f31f20e65d61c671c3f6af36d7374cccc69229142a7770954b9671"),
    "an_14/Q": ("12dfe400aa83c566709c54833d1f2b2d72c003d778b7e70fb95bbd2af5273f4e", "790f59d0d9ec398451599592f3b257eb6791bffcc9c484d62e4d6c4641c79722"),
    "an_14/GF2": ("e14d826316d83a2db9e817934c73b7349881eaf85dc310a5d3d9cf0e33f612a5", "790f59d0d9ec398451599592f3b257eb6791bffcc9c484d62e4d6c4641c79722"),
    "random_0_3/Q": ("bdff9b5d1b53a4bfa360d708a3f75f18c6557640b90a396fb3c2a2c5af3bff3c", "e4d46333974fa23bedea419140b3410114763970f0c7851f76de2460d58d2dd2"),
    "random_0_3/GF2": ("050c68780a5808400744cb9a073cc51b9b8a4cb672052a01b4720eb98d0b78ce", "e4d46333974fa23bedea419140b3410114763970f0c7851f76de2460d58d2dd2"),
    "random_1_3/Q": ("8faad153a5aab7690074cb7ede15c92e3468c0be58974269200507dd34736ae4", "6014daab18a85e25ed4a553f725f0d374a4f55116d651543620b12070953a984"),
    "random_1_3/GF2": ("2d6cabd6da847bd466e2b655d86facfb6eff444ed5cd5efb56cf64c9fc925ed0", "6014daab18a85e25ed4a553f725f0d374a4f55116d651543620b12070953a984"),
    "random_2_4/Q": ("d3d47ebb6c9030539dde7b5c00c6124029da03e977a84a5722b204572f44282b", "3c9f90a004280fb18d740d0bd7810cd5e2184de9ab8d1b0b8ed9805250763f53"),
    "random_2_4/GF2": ("cd2bf4825bdc5263ceda003597fa536775f992be5ff361c0dac6c6e2f0ee161b", "3c9f90a004280fb18d740d0bd7810cd5e2184de9ab8d1b0b8ed9805250763f53"),
    "random_3_5/Q": ("180924d91cc4519af28cbd8a843fb211be2a2bd300782d8069a96e4941e031a3", "4db07b221499f32c76b1834d9b21a5a749217f03227f0d3c657d5b65bb00483a"),
    "random_3_5/GF2": ("ed26fc764d303fc3611f6517bdaecc1deccf174bbedf80358d33760e1f913149", "4db07b221499f32c76b1834d9b21a5a749217f03227f0d3c657d5b65bb00483a"),
    "random_4_6/Q": ("92679c968da44719f193185a0da8941ea4f0f695a5a9146ad54971c48240e39a", "7bbcdc90d17ec70310d45b17d4b82a96c60681454883bd6152cf405975fce3f0"),
    "random_4_6/GF2": ("2bf476d559e12d63cff952ca26856485e01248da4f1167b1194261572711bb26", "7bbcdc90d17ec70310d45b17d4b82a96c60681454883bd6152cf405975fce3f0"),
    "random_5_7/Q": ("33b5d5f7635bf4258189f49b1a68949e277694cb1f9f6a34dd7f847082c7f504", "8ab62b3287e7f41f9fd8768014480318a6c5f1489690bb444dddeed13cb8b6ba"),
    "random_5_7/GF2": ("647a1927f2c4cacb8cb0103896972cf5be8ada7d3d5d84586efd31f20220bdb2", "8ab62b3287e7f41f9fd8768014480318a6c5f1489690bb444dddeed13cb8b6ba"),
    "random_6_8/Q": ("4dff122db16315b90623bc5811b411d64ee5100bc60e8bceaf228a380b125032", "a83c0f9fedfd40a5e1ce505bf27e05802bcf27a4c44bbd4525788b3835dd5ced"),
    "random_6_8/GF2": ("21bdddda5add81eda9d7194eb0372865ac0015a8bff2c4c7ab2cc556c98baf96", "a83c0f9fedfd40a5e1ce505bf27e05802bcf27a4c44bbd4525788b3835dd5ced"),
    "random_7_9/Q": ("a35a64bdd6bcfa02a2bbc2a4d02f09c5d4c5a99d70bc684adeadd0faeab9fab1", "d54716a758456f1b0b6daff4ce3128406645acfc509327763aa0c4fd02f06806"),
    "random_7_9/GF2": ("65b1359f27b2027f4bb22384f1ce96424c11a029acc0c507490cc62bc30a0e42", "d54716a758456f1b0b6daff4ce3128406645acfc509327763aa0c4fd02f06806"),
    "random_8_10/Q": ("a7f7c1b7cb07ed819d18ee5d7d38872b1edc02f8762829deeabc73afa82d3749", "39aba5b1d2e6de9f23b64f41972fd310b247e6ff51ceae887c346fc0aa0fa53a"),
    "random_8_10/GF2": ("79738471ba70efc37a2cfff9225b75b0d9bee48d45d169e2f28f0d5ffd9d0b57", "39aba5b1d2e6de9f23b64f41972fd310b247e6ff51ceae887c346fc0aa0fa53a"),
    "random_9_11/Q": ("876a129ca8e36cdc529a94ddd63556fc14f5751027ba77e758ec4a360e04ed44", "e86c83e3a2c43006fa70db44f0c2700f4869ab11292c3f5d6357ba872c59c50d"),
    "random_9_11/GF2": ("10d25383caf71616dcec0f252922511a50238e90334c13270814bac6e54cc0d3", "e86c83e3a2c43006fa70db44f0c2700f4869ab11292c3f5d6357ba872c59c50d"),
    "random_10_12/Q": ("fe733b533e9d03f145c0b1949c6bf2ae17c71359a4f36347e7aa35a7ff5371a7", "9403916bb2da153b3b0487cd756a5c82adfb5f8da33451a0f421935b0d7b9d3f"),
    "random_10_12/GF2": ("ff1a61557cdbaaa4f853ae459d0ecdb0a99f2599f2a4d1abc25a1bfc75dd2970", "9403916bb2da153b3b0487cd756a5c82adfb5f8da33451a0f421935b0d7b9d3f"),
    "random_11_13/Q": ("191fbdd0381b490fa4e334c27fc240221e695695193e000acd28687bdec6faf4", "764c679fd12fa146c50f12537ab791c77f4884bc6fdbc0c30734559cd72b9ebe"),
    "random_11_13/GF2": ("2a2a76adeff3de35724f218cbe6910346491ff690f6b0d9eb94b5e872bfc607c", "764c679fd12fa146c50f12537ab791c77f4884bc6fdbc0c30734559cd72b9ebe"),
    "random_12_14/Q": ("ac8b97aae81431cd368a1242818e91b40e98df16ce56d8312acb9f4c9308a3a2", "d8a48bac91d847159c6553148cc8851ad9b4e188daa3749c5b4d94ab30e3fd9e"),
    "random_12_14/GF2": ("31673325cb374d66d590fa3a9b55e46257135530c37d78a9563d744cede5f5b7", "d8a48bac91d847159c6553148cc8851ad9b4e188daa3749c5b4d94ab30e3fd9e"),
    "random_13_15/Q": ("8e08005602ddd8ee5db25bdbf8a70566af5a7ae6db9fd8fd0fff40f0ef8445ea", "c7f15b6a3d5e5646ec22d618bb8b9c3556ea7dbe3d6616b32e01bbd4208b7da1"),
    "random_13_15/GF2": ("d08508218fed4f86fbc67548533dbef2656b27bea10f33160c5dc5a1741a83a3", "c7f15b6a3d5e5646ec22d618bb8b9c3556ea7dbe3d6616b32e01bbd4208b7da1"),
    "random_14_16/Q": ("90904f0cf401b594bdc96fca49976f4020e856c1c28c96b81d3051d91b7f3ecf", "518615beda69b36a7c891b1c2590dc7ac9231365b4d16dee83768edac1698740"),
    "random_14_16/GF2": ("8f544a3f11be2707111293c35520b054b26a33f9a004b3aab1673bf7a16363c3", "518615beda69b36a7c891b1c2590dc7ac9231365b4d16dee83768edac1698740"),
    "random_15_16/Q": ("f06ccc3a5d237420fe5f6b4e55aad61371f4019c6a2d43a97d99062f347b3a23", "6504ec21a117075fc0c58dcba8cade46254a4dd7296f6bf2606ef4c7e8b2fa12"),
    "random_15_16/GF2": ("a607a0bbc09db24ecdb524e94e8293db14dbc8b08e15571945a08be96da8747f", "6504ec21a117075fc0c58dcba8cade46254a4dd7296f6bf2606ef4c7e8b2fa12"),
    "random_16_17/Q": ("02ae62942fe9f68af64cdf7a4714e43992fdc5428bae0e914f4b54961bd33d33", "80389382c2ff3f2aef5b446e39b013bbec8a904427fef4720713f4331d562925"),
    "random_16_17/GF2": ("fb6d3b592b41adc3452930021bf58b9024e451d0b8b15af78b562049c528beb4", "80389382c2ff3f2aef5b446e39b013bbec8a904427fef4720713f4331d562925"),
    "random_17_18/Q": ("a505ab507dd6f162ff8ba1d3244635d08d6fa74ce2eedfb1c22dab45fddba104", "0b6d655981609a1933882b593ad3a9e116c5832ae0619921616fb921b9582424"),
    "random_17_18/GF2": ("402632563bd10ab1fbded44e5453e4e8aee843f56e0c9b4479fb4cb28afd5956", "0b6d655981609a1933882b593ad3a9e116c5832ae0619921616fb921b9582424"),
    "random_18_19/Q": ("17ac7093ee7e5916a7215a5181db8dc278cb032e6c5604feea35b3b2c7729446", "79b8481e6061b975819d03950b530abb870cfbee160c84c9f3b70ce3b3dd0c51"),
    "random_18_19/GF2": ("80c47e60aa470a9aa278b62ee68041fd1ac211e277b72175dc3722789ef28889", "79b8481e6061b975819d03950b530abb870cfbee160c84c9f3b70ce3b3dd0c51"),
    "random_19_20/Q": ("3056e246bff6c48f86db4b3234ad7c586cb6b66160355e8b509f739009636d24", "b6586690e3fcfba1d7ec142763823162ecc4fba5dcdad720de985a3b410eba70"),
    "random_19_20/GF2": ("ca3f61957efd2498c4fbb9e542aa0087d909a0913fa4910e38764b9950fb3327", "b6586690e3fcfba1d7ec142763823162ecc4fba5dcdad720de985a3b410eba70"),
    "random_20_21/Q": ("8172e6f6a4823b78d045272663b03cda56b9b6ca5234a5345dbff03a197ad23c", "37674334334f38d9fb245b7d03fee9c3cac3e7db71986fc7a3495ca164dee0f7"),
    "random_20_21/GF2": ("9797d5018af00ac5e4a3cc1864f25c5005acdf47b1d7089e14518fcd2232d0b9", "37674334334f38d9fb245b7d03fee9c3cac3e7db71986fc7a3495ca164dee0f7"),
    "random_21_22/Q": ("f4541aa4acb00635f7a585e9c5da27059b90ae5832ef1f89eb7123ad7b042b4b", "34637c0bea0a6b8fe925cffdfc6539ef7e346d16a4e3e08d946bd8711afc8133"),
    "random_21_22/GF2": ("94c58237ef2269fc28a9aeafbab7acc60415aad02c0e99d719c957fab11a3ff8", "34637c0bea0a6b8fe925cffdfc6539ef7e346d16a4e3e08d946bd8711afc8133"),
    "random_22_23/Q": ("676cfb3375984b13c513056dee012502ac58d6ef1699decc4e9db9ff7201f8fe", "db20b8a1f4a2de2456a297508ccdcc67ad90993bb95580815777ee6f4d216e75"),
    "random_22_23/GF2": ("35b797ea6a2d2d35c17dc229d3020f82300bdf690ad19c7cd7e22d16180d6179", "db20b8a1f4a2de2456a297508ccdcc67ad90993bb95580815777ee6f4d216e75"),
    "random_23_24/Q": ("3b69ff4d6548b41f467157462a7b8933dfe53b7b7f6a66bded9b7c9936ca5b43", "d1028c62496989c4c540a012cb5b7dea9464836479dbd74788fc56ab06df3836"),
    "random_23_24/GF2": ("777775744232ded3228ebffe46574e7fe01a472b54315595851f28496630c0a4", "d1028c62496989c4c540a012cb5b7dea9464836479dbd74788fc56ab06df3836"),
    "random_24_25/Q": ("016ccb8ca800d9f41a2e461a3c29eeb1802079ef2968d7d2c7996be7a1be1d4f", "754fb4f655f7c5fc912e304ac99b2f72b04e186a933fcb5a9a616ce31d5e694e"),
    "random_24_25/GF2": ("d147361dd1e9aa01b40a1a20b2c9a920b8a9c33d4cd35596e08268a913047b4e", "754fb4f655f7c5fc912e304ac99b2f72b04e186a933fcb5a9a616ce31d5e694e"),
    "random_25_26/Q": ("0fde74aa1f2baf727277ef6e8d6f811398acd419da4fb9e2c74cd3d4ac87ecbe", "67fe09468560f94863c9eb0722645fe98279985a70e5ba25ec032834329e2bcf"),
    "random_25_26/GF2": ("c7d2159d21ab8a6cb71ba475375ee240a355ac0e9c278b537d9c19d9027d6787", "67fe09468560f94863c9eb0722645fe98279985a70e5ba25ec032834329e2bcf"),
    "random_26_27/Q": ("25f31abf03b01ab14272ab72c450e6d9490a6d3afa80366d0bf254651c36b6c4", "c8fcd93e057b41a91bd66abf4937489a09533520295d6a45d64a24fd5d04a5e5"),
    "random_26_27/GF2": ("aac5b36d7e2d064a11f39d7e6b4bccfa6428141083a0633bc253b00ab247de55", "c8fcd93e057b41a91bd66abf4937489a09533520295d6a45d64a24fd5d04a5e5"),
    "random_27_28/Q": ("f3e8b4b14dad0eb1c885514e96264b2a6b85aad2712216ae7f6bc76109a7f99f", "e64b201e8fc523c5904e07296e2a877ff9b13c2f4bdc5547f69b82075237bc3d"),
    "random_27_28/GF2": ("2de7e014444f69b3125a90ee78a9b41d8e4ae79bad342bed3990514a34f06e27", "e64b201e8fc523c5904e07296e2a877ff9b13c2f4bdc5547f69b82075237bc3d"),
    "random_28_29/Q": ("60ef2e54a1346439a730482fbce8def7d48f3e8e95ccf922dfef30780400c23c", "b10ca84b98826bd05b5f3a424a0cf63552fd06919fd231c14e2e4fda86b4ccb6"),
    "random_28_29/GF2": ("e8c871deb7e85c2a6bd49d852c7690412c93ae14832a4b565d6bc71368cf619e", "b10ca84b98826bd05b5f3a424a0cf63552fd06919fd231c14e2e4fda86b4ccb6"),
    "random_29_30/Q": ("2d08c1ccd55d18237c88a22624adb504dc90db8a7fa474a6d64059387352753c", "a5c2ce5509ea48b44c277ac1bb6b737cd794581b16ec846180a0a7da71f45227"),
    "random_29_30/GF2": ("93e80ce1fec55e0eeadb60acb8b4a3f8a5fb27aaef740ddb29c2e62318343467", "a5c2ce5509ea48b44c277ac1bb6b737cd794581b16ec846180a0a7da71f45227"),
}


def test_completion_digests_cover_every_case():
    expected = {f"{name}/{field}" for name in golden_presentations() for field in FIELDS}
    assert set(COMPLETION_DIGESTS) == expected


def oracle_rules(rules):
    """``RewriteSystem.rules``, each tail a (word, coefficient) term or None,
    as the oracle's {lead: {word: coefficient}}, in the same order."""
    return {lead: {} if term is None else {term[0]: term[1]} for lead, term in rules.items()}


def _pinned_rules(rules, field):
    """The rules as (lead, {word: coefficient}) pairs, each word as its
    tuple of arrow ids; over Q each tail coefficient is written as a
    ``Fraction``, so the digest pins values and not whether a coefficient is
    held as an int or a Fraction."""
    cast = Fraction if field == QQ else (lambda c: c)
    return [
        (word_ids(lead), {word_ids(w): cast(c) for w, c in tail.items()})
        for lead, tail in oracle_rules(rules).items()
    ]


def _pinned_blocks(blocks):
    """The word table with each word as its tuple of arrow ids."""
    return {key: tuple(map(word_ids, words)) for key, words in blocks.items()}


@pytest.mark.parametrize("key", sorted(COMPLETION_DIGESTS))
def test_completion_digest(key):
    name, field = key.split("/")
    A = quotient_basis(golden_presentations()[name](), field=FIELDS[field])
    pinned = _pinned_rules(A._rsys.rules, FIELDS[field])
    rules = hashlib.sha256(repr(pinned).encode("utf-8")).hexdigest()
    blocks = hashlib.sha256(repr(_pinned_blocks(A.blocks)).encode("utf-8")).hexdigest()
    assert (rules, blocks) == COMPLETION_DIGESTS[key]


# -- index bookkeeping against brute force --------------------------------


def brute_find_factor(rules, word):
    for i in range(len(word)):
        for length in range(1, len(word) - i + 1):
            if word[i : i + length] in rules:
                return i, word[i : i + length]
    return None


def brute_lead_suffix(rules, word):
    return next((word[-n:] for n in range(1, len(word) + 1) if word[-n:] in rules), None)


def brute_overlaps(rules, lead):
    out = []
    for other in rules:
        for first, second in ((lead, other), (other, lead)):
            for k in range(1, min(len(first), len(second))):
                if first[-k:] == second[:k]:
                    out.append((first, second, k))
    return out


def brute_stale(rules, lead):
    n = len(lead)
    return [
        other
        for other in rules
        if len(other) > n and any(other[i : i + n] == lead for i in range(len(other) - n + 1))
    ]


def random_word(rng, arrows, longest):
    return word(rng.randrange(arrows) for _ in range(rng.randint(1, longest)))


@pytest.mark.parametrize("seed", range(6))
def test_indexes_match_brute_force(seed):
    rng = Random(seed)
    arrows = 3
    rs = RewriteSystem(QQ)
    for step in range(150):
        lead = random_word(rng, arrows, 5)
        while lead in rs.rules:
            lead = random_word(rng, arrows, 5)
        # every third rule is monomial
        rs.add_rule(lead, ("", QQ.from_int(step)) if step % 3 else None)
        rules = rs.rules
        live = set(rules)
        for index in (rs._by_first, rs._by_last):
            assert set().union(*index.values()) == live
        binomial = {lead for lead, tail in rules.items() if tail}
        for index in (rs._binomial_first, rs._binomial_last):
            assert set().union(*index.values()) == binomial
        assert rs.longest_monomial == max((len(w) for w in live - binomial), default=0)
        assert rs._stamp == {lead: i for i, lead in enumerate(rules)}
        for end, lengths in ((0, rs._first_lengths), (-1, rs._last_lengths)):
            expected = {}
            for lead in rules:
                expected.setdefault(lead[end], set()).add(len(lead))
            assert lengths == {a: tuple(sorted(ls)) for a, ls in expected.items()}
        for _ in range(8):
            word = random_word(rng, arrows, 9)
            assert rs.find_factor(word) == brute_find_factor(rules, word)
            assert rs.lead_suffix(word) == brute_lead_suffix(rules, word)
        probes = [random_word(rng, arrows, 5) for _ in range(3)]
        probes += rng.sample(list(rules), min(3, len(rules)))
        for lead in probes:
            assert rs.overlaps(lead) == brute_overlaps(rules, lead)
            binomial_rules = {w: t for w, t in rules.items() if t}
            assert rs.overlaps(lead, binomial=True) == brute_overlaps(binomial_rules, lead)
    assert rs.find_factor("") is None and rs.lead_suffix("") is None


# -- completion against the all-pairs oracle ------------------------------


def brute_nf(rules, combo, field):
    """Normal form of combo under rules, rewriting the leftmost, shortest
    lead first, as ``RewriteSystem.nf_word`` does."""
    memo = {}

    def nf_word(word):
        if word not in memo:
            hit = brute_find_factor(rules, word)
            if hit is None:
                memo[word] = {word: field.one}
            else:
                i, lead = hit
                prefix, suffix = word[:i], word[i + len(lead) :]
                out = {}
                for tword, tcoeff in rules[lead].items():
                    vec_add_scaled(out, nf_word(prefix + tword + suffix), tcoeff)
                memo[word] = out
        return memo[word]

    out = {}
    for word, coeff in combo.items():
        if coeff:
            vec_add_scaled(out, nf_word(word), coeff)
    return out


def reference_complete(relations, field, maxlen):
    """The completion loop with no pair skipped, over a plain dict of rules:
    every new lead meets every rule, monomial pairs included, and a rule
    whose lead contains the new lead is dropped and requeued; normal forms,
    overlaps and stale rules by brute force.  Returns (rules, truncated)."""
    rules = {}
    heap = []
    counter = 0
    for rel in relations:
        rel = {w: c for w, c in rel.items() if c}
        if rel:
            heapq.heappush(heap, (max(len(w) for w in rel), counter, rel))
            counter += 1
    seen = set()
    truncated = False
    while heap:
        _, _, poly = heapq.heappop(heap)
        poly = brute_nf(rules, poly, field)
        if not poly:
            continue
        lead = max(poly, key=lambda w: (len(w), w))
        lc = poly[lead]
        tail = {w: field.div(-c, lc) for w, c in poly.items() if w != lead}
        for other in brute_stale(rules, lead):
            requeued = {other: field.one}
            vec_add_scaled(requeued, rules.pop(other), -field.one)
            heapq.heappush(heap, (len(other), counter, requeued))
            counter += 1
        rules[lead] = tail
        for first, second, k in brute_overlaps(rules, lead):
            total = len(first) + len(second) - k
            if total > maxlen:
                truncated = True
                continue
            if (first, second, k) in seen:
                continue
            seen.add((first, second, k))
            suffix, prefix = second[k:], first[: len(first) - k]
            spoly = {w + suffix: c for w, c in rules[first].items()}
            vec_add_scaled(spoly, {prefix + w: c for w, c in rules[second].items()}, -field.one)
            if spoly:
                heapq.heappush(heap, (total, counter, spoly))
                counter += 1
    return rules, truncated


def oracle_presentations():
    """name -> presentation: Omega of seeded random graphs and loop-stars,
    and the comparison algebras A(n)."""
    out = {
        f"random_{s}": omega_relations(build_quiver(random_one_loop_graph(Random(100 + s), 3 + s)))
        for s in range(16)
    }
    out.update({f"omega_{n}": omega_relations(build_quiver(loop_star(n))) for n in (2, 6, 12)})
    out.update({f"an_{n}": a_n_presentation(n) for n in (2, 4, 7, 11)})
    return out


ORACLE = oracle_presentations()
ORACLE_MAXLENS = (3, 4, 6, 9, 14, 40)
ORACLE_FIELDS = (QQ, PrimeField(2), PrimeField(3))


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_complete_matches_all_pairs_oracle(name):
    p = ORACLE[name]
    flags = set()
    for field in ORACLE_FIELDS:
        combos = _relation_combos(p, field)
        for maxlen in ORACLE_MAXLENS:
            rs, truncated = complete(combos, field, maxlen)
            ref, ref_truncated = reference_complete(combos, field, maxlen)
            assert list(oracle_rules(rs.rules).items()) == list(ref.items()), (field, maxlen)
            assert truncated == ref_truncated, (field, maxlen)
            flags.add(truncated)
    assert flags == {True, False}


def ceiling_bound(p):
    """The one bound ``quotient_basis`` completes p at by default."""
    cap, margin = _default_bounds(p.quiver)
    return max(cap + margin, 2 * cap)


# benchmark-sized presentations, completed at their ceiling bound only
ORACLE_AT_CEILING = {
    "omega_36": lambda: omega_relations(build_quiver(loop_star(36))),
    "omega_59": lambda: omega_relations(build_quiver(loop_star(59))),
    "random_7_14": lambda: omega_relations(build_quiver(random_one_loop_graph(Random(7), 14))),
}


@pytest.mark.parametrize("name", sorted(ORACLE_AT_CEILING))
def test_complete_matches_all_pairs_oracle_at_the_ceiling(name):
    p = ORACLE_AT_CEILING[name]()
    bound = ceiling_bound(p)
    for field in ORACLE_FIELDS:
        combos = _relation_combos(p, field)
        rs, truncated = complete(combos, field, bound)
        ref, ref_truncated = reference_complete(combos, field, bound)
        assert list(oracle_rules(rs.rules).items()) == list(ref.items()), field
        assert truncated == ref_truncated is False, field


@pytest.mark.parametrize("name", sorted(golden_presentations()))
def test_every_rule_has_at_most_one_tail_term(name):
    """Every relation built is binomial, so every completed rule rewrites
    its lead to one signed word, (word, nonzero coefficient), or to 0, None."""
    p = golden_presentations()[name]()
    for field in ORACLE_FIELDS:
        rs, truncated = complete(_relation_combos(p, field), field, ceiling_bound(p))
        assert not truncated
        for term in rs.rules.values():
            if term is not None:
                w, coeff = term
                assert type(w) is str and coeff, (field, term)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["Q", "GF2", "GF3"])
def test_two_terms_reducing_to_one_word_merge(field):
    """The relation (0,1) - (2,3) gives the rule (2,3) -> (0,1), so both
    terms of a second relation (0,1) + (2,3) reduce to the word (0,1) and
    ``complete`` adds their coefficients: 2 * (0,1) is the monomial rule
    (0,1) -> 0 unless 2 = 0, as over GF(2).  Of (2,3) - (0,1) the two terms
    cancel in every field."""
    one = field.one
    u, v = word((0, 1)), word((2, 3))
    first = {u: one, v: -one}
    for second, monomial in (
        ({u: one, v: one}, bool(one + one)),
        ({v: one, u: -one}, False),
    ):
        rs, truncated = complete([first, second], field, 6)
        expected = {v: (u, one)} | ({u: None} if monomial else {})
        assert list(rs.rules.items()) == list(expected.items()) and not truncated, second
        ref, ref_truncated = reference_complete([first, second], field, 6)
        assert list(oracle_rules(rs.rules).items()) == list(ref.items()), second
        assert truncated == ref_truncated, second


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["Q", "GF2", "GF3"])
def test_a_relation_of_three_terms_is_refused(field):
    """``complete`` takes relations of at most two nonzero terms only."""
    one = field.one
    complete([{word((0, 0)): one, word((0, 1)): one, word((1, 0)): field.zero}], field, 8)
    three = {word((0, 0)): one, word((0, 1)): one, word((1, 0)): one}
    with pytest.raises(
        NonBinomialRelation, match="^relation of 3 terms, not at most two$"
    ):
        complete([{word((1, 1)): one}, three], field, 8)


@pytest.mark.parametrize("outer", ["bcd", "dbc"])
@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_inclusion_ambiguity_is_refused(field, outer):
    """One vertex with loops a, b, c, d (ids 0-3) and relations bcd,
    aaaa + bc and aaaa: the third gives the lead bc, which lies inside the
    older lead bcd (and at its end in the variant dbc).  The oracle drops
    that lead and requeues it; ``complete`` keeps every rule and refuses
    the result."""
    ids = tuple("abcd".index(x) for x in outer)
    aaaa, bc = word((0, 0, 0, 0)), word((1, 2))
    relations = [
        {word(ids): field.one},
        {aaaa: field.one, bc: field.one},
        {aaaa: field.one},
    ]
    rules, truncated = reference_complete(relations, field, 8)
    assert rules == {aaaa: {bc: -field.one}, bc: {}}
    assert not truncated
    with pytest.raises(InclusionAmbiguity, match=re.escape(f"lead {ids} contains the lead (1, 2)")):
        complete(relations, field, 8)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_a_lead_of_one_arrow_is_not_admissible(field):
    """A relation a, or aa + a once aa is a rule, leaves a consequence whose
    lead is the arrow a: the ideal is not admissible and ``complete`` says so
    instead of adding a rule of length 1."""
    a, aa = word((0,)), word((0, 0))
    for relations in ([{a: field.one}], [{aa: field.one}, {aa: field.one, a: field.one}]):
        with pytest.raises(NotAdmissible, match="^ideal contains a generator of length 1$"):
            complete(relations, field, 8)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "GF3"])
def test_nf_word_matches_brute_force(field):
    """``nf_word`` of a random word with a random nonzero coefficient equals
    the brute-force normal form over a completed system: one signed word,
    or None where the brute force gives 0."""
    q = build_quiver(corpus_graphs()["mixed7"])
    rs = quotient_basis(omega_relations(q), field=field)._rsys
    rules = oracle_rules(rs.rules)
    rng = Random(3)
    arrows = len(q.arrows)
    seen = set()
    for _ in range(300):
        w = random_word(rng, arrows, 7)
        coeff = field.from_int(rng.choice([-2, -1, 1, 2]))
        term = rs.nf_word(w, coeff)
        assert ({} if term is None else dict([term])) == brute_nf(rules, {w: coeff}, field), w
        seen.add(term is None)
    assert seen == {True, False}
