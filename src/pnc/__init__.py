"""Perfect-secrecy analysis for two-user relay networks with structured interference."""

from .bounds import *
from .constellation import *
from .encoders import *
from .mimo import *
from .sync import *

__version__ = "0.1.0"
