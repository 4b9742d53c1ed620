"""The property runners of thetagauss.properties, under the name the tests
import; each returns the worst defect of `count` seeded instances."""

from thetagauss.properties import *  # noqa: F401,F403
